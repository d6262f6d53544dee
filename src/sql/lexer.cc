#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/strings.h"

namespace clydesdale {
namespace sql {

namespace {
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return IsIdentStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '.' || c == '#';
}
}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(sql[j])) ++j;
      token.kind = TokenKind::kIdent;
      token.raw = sql.substr(i, j - i);
      token.text = token.raw;
      for (char& ch : token.text) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      token.kind = TokenKind::kNumber;
      token.raw = sql.substr(i, j - i);
      token.text = token.raw;
      // The run is all digits, so the only possible failure is overflow.
      const char* begin = token.raw.data();
      if (std::from_chars(begin, begin + token.raw.size(), token.number).ec !=
          std::errc()) {
        return Status::InvalidArgument(
            StrCat("integer literal out of range at offset ", i));
      }
      i = j;
    } else if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      while (true) {
        if (j >= n) {
          return Status::InvalidArgument(
              StrCat("unterminated string literal at offset ", i));
        }
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {  // '' escape
            value.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        value.push_back(sql[j]);
        ++j;
      }
      token.kind = TokenKind::kString;
      token.text = value;
      token.raw = value;
      i = j + 1;
    } else {
      // Two-character operators first.
      static const char* kTwo[] = {"!=", "<>", "<=", ">="};
      std::string sym(1, c);
      if (i + 1 < n) {
        const std::string pair = sql.substr(i, 2);
        for (const char* two : kTwo) {
          if (pair == two) {
            sym = pair;
            break;
          }
        }
      }
      static const std::string kSingles = "(),=<>+-*";
      if (sym.size() == 1 && kSingles.find(c) == std::string::npos) {
        return Status::InvalidArgument(
            StrCat("unexpected character '", std::string(1, c),
                   "' at offset ", i));
      }
      token.kind = TokenKind::kSymbol;
      token.text = sym;
      token.raw = sym;
      i += sym.size();
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace clydesdale
