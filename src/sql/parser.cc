#include "sql/parser.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/strings.h"
#include "sql/lexer.h"

namespace clydesdale {
namespace sql {

namespace {

using core::DimJoinSpec;
using core::StarQuerySpec;
using core::StarSchema;

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// Last path segment ("/ssb/lineorder" -> "lineorder").
std::string TableBaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

struct ColumnRef {
  bool from_fact = false;
  std::string dimension;  // when !from_fact
  std::string column;     // canonical (schema) name
  TypeKind type = TypeKind::kInt32;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const StarSchema& star)
      : tokens_(std::move(tokens)), star_(star) {}

  Result<StarQuerySpec> Parse() {
    CLY_RETURN_IF_ERROR(ExpectKeyword("select"));
    CLY_RETURN_IF_ERROR(ParseSelectList());
    CLY_RETURN_IF_ERROR(ExpectKeyword("from"));
    CLY_RETURN_IF_ERROR(ParseFrom());
    if (Peek().IsKeyword("where")) {
      Advance();
      CLY_RETURN_IF_ERROR(ParseWhere());
    }
    if (Peek().IsKeyword("group")) {
      Advance();
      CLY_RETURN_IF_ERROR(ExpectKeyword("by"));
      CLY_RETURN_IF_ERROR(ParseGroupBy());
    } else if (!select_columns_.empty()) {
      return Error("non-aggregate select columns require GROUP BY");
    }
    if (Peek().IsKeyword("order")) {
      Advance();
      CLY_RETURN_IF_ERROR(ExpectKeyword("by"));
      CLY_RETURN_IF_ERROR(ParseOrderBy());
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error(StrCat("unexpected trailing input '", Peek().raw, "'"));
    }
    return Finish();
  }

 private:
  // --- token helpers ----------------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    const size_t i = std::min(pos_ + static_cast<size_t>(ahead),
                              tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrCat("SQL error at offset ", Peek().position, ": ", message));
  }

  Status ExpectKeyword(const char* keyword) {
    if (!Peek().IsKeyword(keyword)) {
      return Error(StrCat("expected '", keyword, "', found '", Peek().raw, "'"));
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(const char* symbol) {
    if (!Peek().IsSymbol(symbol)) {
      return Error(StrCat("expected '", symbol, "', found '", Peek().raw, "'"));
    }
    Advance();
    return Status::OK();
  }

  // --- name resolution -----------------------------------------------------------
  Result<ColumnRef> ResolveColumn(const std::string& name_in) {
    std::string name = Lower(name_in);
    // Strip an optional table qualifier.
    if (const size_t dot = name.find('.'); dot != std::string::npos) {
      name = name.substr(dot + 1);
    }
    ColumnRef ref;
    int matches = 0;
    if (const int i = star_.fact().schema->IndexOf(name); i >= 0) {
      ref.from_fact = true;
      ref.column = name;
      ref.type = star_.fact().schema->field(i).type;
      ++matches;
    }
    for (const auto& [dim_name, dim] : star_.dims()) {
      if (const int i = dim.desc.schema->IndexOf(name); i >= 0) {
        ref.from_fact = false;
        ref.dimension = dim_name;
        ref.column = name;
        ref.type = dim.desc.schema->field(i).type;
        ++matches;
      }
    }
    if (matches == 0) return Error(StrCat("unknown column '", name_in, "'"));
    if (matches > 1) {
      return Error(StrCat("ambiguous column '", name_in, "'"));
    }
    return ref;
  }

  Result<Value> LiteralFor(const ColumnRef& column) {
    const Token& token = Peek();
    if (token.kind == TokenKind::kString) {
      if (column.type != TypeKind::kString) {
        return Error(StrCat("string literal for non-string column '",
                            column.column, "'"));
      }
      Advance();
      return Value(token.raw);
    }
    if (token.kind == TokenKind::kNumber) {
      Advance();
      switch (column.type) {
        case TypeKind::kInt32:
          // A literal past int32 stays an int64: narrowing it would
          // change the comparison.
          if (token.number >= std::numeric_limits<int32_t>::min() &&
              token.number <= std::numeric_limits<int32_t>::max()) {
            return Value(static_cast<int32_t>(token.number));
          }
          return Value(token.number);
        case TypeKind::kInt64:
          return Value(static_cast<int64_t>(token.number));
        case TypeKind::kDouble:
          return Value(static_cast<double>(token.number));
        case TypeKind::kString:
          return Error(StrCat("numeric literal for string column '",
                              column.column, "'"));
      }
    }
    return Error(StrCat("expected a literal, found '", token.raw, "'"));
  }

  static bool IsAggKeyword(const Token& token, core::AggKind* kind) {
    if (token.IsKeyword("sum")) *kind = core::AggKind::kSum;
    else if (token.IsKeyword("count")) *kind = core::AggKind::kCount;
    else if (token.IsKeyword("min")) *kind = core::AggKind::kMin;
    else if (token.IsKeyword("max")) *kind = core::AggKind::kMax;
    else if (token.IsKeyword("avg")) *kind = core::AggKind::kAvg;
    else return false;
    return true;
  }

  // --- SELECT ----------------------------------------------------------------------
  Status ParseSelectList() {
    while (true) {
      core::AggKind kind;
      if (IsAggKeyword(Peek(), &kind) && Peek(1).IsSymbol("(")) {
        Advance();
        CLY_RETURN_IF_ERROR(ExpectSymbol("("));
        Expr::Ptr expr;
        if (kind == core::AggKind::kCount) {
          // COUNT(*) or COUNT(expr); rows have no NULLs, so both count rows.
          if (Peek().IsSymbol("*")) {
            Advance();
          } else {
            CLY_ASSIGN_OR_RETURN(Expr::Ptr ignored, ParseScalarExpr());
            (void)ignored;
          }
        } else {
          CLY_ASSIGN_OR_RETURN(expr, ParseScalarExpr());
        }
        CLY_RETURN_IF_ERROR(ExpectSymbol(")"));
        std::string name =
            StrCat(core::AggKindToString(kind), aggregates_.size() + 1);
        if (Peek().IsKeyword("as")) {
          Advance();
          if (Peek().kind != TokenKind::kIdent) {
            return Error("expected an alias after AS");
          }
          name = Lower(Advance().raw);
        }
        aggregates_.push_back({name, std::move(expr), kind});
      } else if (Peek().kind == TokenKind::kIdent) {
        CLY_ASSIGN_OR_RETURN(ColumnRef ref, ResolveColumn(Advance().raw));
        select_columns_.push_back(std::move(ref));
      } else {
        return Error("expected a column or SUM(...) in SELECT");
      }
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    if (aggregates_.empty()) {
      return Error("star queries need at least one aggregate "
                   "(SUM/COUNT/MIN/MAX/AVG)");
    }
    return Status::OK();
  }

  /// expr := term (('+'|'-') term)*; term := primary ('*' primary)*;
  /// primary := number | column | '(' expr ')'. Columns must be fact columns
  /// (aggregates run while scanning the fact table).
  Result<Expr::Ptr> ParseScalarExpr() {
    CLY_ASSIGN_OR_RETURN(Expr::Ptr left, ParseTerm());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      const bool add = Peek().IsSymbol("+");
      Advance();
      CLY_ASSIGN_OR_RETURN(Expr::Ptr right, ParseTerm());
      left = add ? Expr::Add(left, right) : Expr::Sub(left, right);
    }
    return left;
  }

  Result<Expr::Ptr> ParseTerm() {
    CLY_ASSIGN_OR_RETURN(Expr::Ptr left, ParsePrimary());
    while (Peek().IsSymbol("*")) {
      Advance();
      CLY_ASSIGN_OR_RETURN(Expr::Ptr right, ParsePrimary());
      left = Expr::Mul(left, right);
    }
    return left;
  }

  Result<Expr::Ptr> ParsePrimary() {
    if (Peek().IsSymbol("(")) {
      Advance();
      CLY_ASSIGN_OR_RETURN(Expr::Ptr inner, ParseScalarExpr());
      CLY_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    if (Peek().kind == TokenKind::kNumber) {
      const int64_t n = Advance().number;
      return Expr::Lit(Value(n));
    }
    if (Peek().kind == TokenKind::kIdent) {
      CLY_ASSIGN_OR_RETURN(ColumnRef ref, ResolveColumn(Advance().raw));
      if (!ref.from_fact) {
        return Error(StrCat("aggregate input '", ref.column,
                            "' must be a fact-table column"));
      }
      return Expr::Col(ref.column);
    }
    return Error(StrCat("expected an expression, found '", Peek().raw, "'"));
  }

  // --- FROM ------------------------------------------------------------------------
  Status ParseFrom() {
    while (true) {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected a table name in FROM");
      }
      const std::string name = Lower(Advance().raw);
      if (name == TableBaseName(star_.fact().path)) {
        if (saw_fact_) return Error("fact table listed twice");
        saw_fact_ = true;
      } else if (star_.dims().count(name) > 0) {
        if (std::find(from_dims_.begin(), from_dims_.end(), name) !=
            from_dims_.end()) {
          return Error(StrCat("dimension '", name, "' listed twice"));
        }
        from_dims_.push_back(name);
      } else {
        return Error(StrCat("unknown table '", name, "'"));
      }
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    if (!saw_fact_) return Error("FROM must include the fact table");
    return Status::OK();
  }

  // --- WHERE -----------------------------------------------------------------------
  Status ParseWhere() {
    while (true) {
      CLY_RETURN_IF_ERROR(ParseCondition());
      if (!Peek().IsKeyword("and")) break;
      Advance();
    }
    return Status::OK();
  }

  /// condition := '(' simple (OR simple)* ')' | simple
  Status ParseCondition() {
    if (Peek().IsSymbol("(")) {
      Advance();
      std::vector<Predicate::Ptr> branches;
      std::string owner_dim;
      bool owner_fact = false;
      while (true) {
        CLY_ASSIGN_OR_RETURN(OwnedPredicate p, ParseSimple());
        if (branches.empty()) {
          owner_dim = p.dimension;
          owner_fact = p.from_fact;
        } else if (p.from_fact != owner_fact || p.dimension != owner_dim) {
          return Error("OR branches must all constrain the same table");
        }
        branches.push_back(std::move(p.predicate));
        if (Peek().IsKeyword("or")) {
          Advance();
          continue;
        }
        break;
      }
      CLY_RETURN_IF_ERROR(ExpectSymbol(")"));
      AttachPredicate(owner_fact, owner_dim,
                      branches.size() == 1 ? branches[0]
                                           : Predicate::Or(std::move(branches)));
      return Status::OK();
    }
    // A plain simple condition — or a join condition (column = column).
    if (Peek().kind == TokenKind::kIdent && Peek(1).IsSymbol("=") &&
        Peek(2).kind == TokenKind::kIdent && !Peek(2).IsKeyword("and")) {
      // column = column: a join.
      CLY_ASSIGN_OR_RETURN(ColumnRef left, ResolveColumn(Advance().raw));
      Advance();  // '='
      CLY_ASSIGN_OR_RETURN(ColumnRef right, ResolveColumn(Advance().raw));
      if (left.from_fact == right.from_fact) {
        return Error("join conditions must relate the fact table to a "
                     "dimension");
      }
      const ColumnRef& fact_side = left.from_fact ? left : right;
      const ColumnRef& dim_side = left.from_fact ? right : left;
      if (joins_.count(dim_side.dimension) > 0) {
        return Error(StrCat("dimension '", dim_side.dimension,
                            "' joined twice"));
      }
      joins_[dim_side.dimension] =
          std::make_pair(fact_side.column, dim_side.column);
      return Status::OK();
    }
    CLY_ASSIGN_OR_RETURN(OwnedPredicate p, ParseSimple());
    AttachPredicate(p.from_fact, p.dimension, std::move(p.predicate));
    return Status::OK();
  }

  struct OwnedPredicate {
    Predicate::Ptr predicate;
    bool from_fact = false;
    std::string dimension;
  };

  /// simple := col op literal | col BETWEEN lit AND lit | col IN '(' ... ')'
  Result<OwnedPredicate> ParseSimple() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected a column in WHERE");
    }
    CLY_ASSIGN_OR_RETURN(ColumnRef column, ResolveColumn(Advance().raw));
    OwnedPredicate out;
    out.from_fact = column.from_fact;
    out.dimension = column.dimension;

    if (Peek().IsKeyword("between")) {
      Advance();
      CLY_ASSIGN_OR_RETURN(Value lo, LiteralFor(column));
      CLY_RETURN_IF_ERROR(ExpectKeyword("and"));
      CLY_ASSIGN_OR_RETURN(Value hi, LiteralFor(column));
      out.predicate = Predicate::Between(column.column, std::move(lo),
                                         std::move(hi));
      return out;
    }
    if (Peek().IsKeyword("in")) {
      Advance();
      CLY_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        CLY_ASSIGN_OR_RETURN(Value v, LiteralFor(column));
        values.push_back(std::move(v));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      CLY_RETURN_IF_ERROR(ExpectSymbol(")"));
      out.predicate = Predicate::In(column.column, std::move(values));
      return out;
    }
    if (Peek().kind != TokenKind::kSymbol) {
      return Error(StrCat("expected a comparison after '", column.column, "'"));
    }
    const std::string op = Advance().text;
    CLY_ASSIGN_OR_RETURN(Value literal, LiteralFor(column));
    if (op == "=") {
      out.predicate = Predicate::Eq(column.column, std::move(literal));
    } else if (op == "!=" || op == "<>") {
      out.predicate = Predicate::Ne(column.column, std::move(literal));
    } else if (op == "<") {
      out.predicate = Predicate::Lt(column.column, std::move(literal));
    } else if (op == "<=") {
      out.predicate = Predicate::Le(column.column, std::move(literal));
    } else if (op == ">") {
      out.predicate = Predicate::Gt(column.column, std::move(literal));
    } else if (op == ">=") {
      out.predicate = Predicate::Ge(column.column, std::move(literal));
    } else {
      return Error(StrCat("unsupported operator '", op, "'"));
    }
    return out;
  }

  void AttachPredicate(bool from_fact, const std::string& dimension,
                       Predicate::Ptr predicate) {
    if (from_fact) {
      fact_predicates_.push_back(std::move(predicate));
    } else {
      dim_predicates_[dimension].push_back(std::move(predicate));
    }
  }

  // --- GROUP BY / ORDER BY --------------------------------------------------------
  Status ParseGroupBy() {
    while (true) {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected a column in GROUP BY");
      }
      CLY_ASSIGN_OR_RETURN(ColumnRef ref, ResolveColumn(Advance().raw));
      group_by_.push_back(std::move(ref));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    // The non-aggregate select list must be exactly the GROUP BY set.
    auto names = [](const std::vector<ColumnRef>& refs) {
      std::vector<std::string> out;
      for (const ColumnRef& r : refs) out.push_back(r.column);
      std::sort(out.begin(), out.end());
      return out;
    };
    if (names(select_columns_) != names(group_by_)) {
      return Error("SELECT's non-aggregate columns must match GROUP BY");
    }
    return Status::OK();
  }

  Status ParseOrderBy() {
    while (true) {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected a column in ORDER BY");
      }
      core::OrderBySpec ob;
      ob.column = Lower(Advance().raw);
      if (Peek().IsKeyword("asc")) {
        Advance();
      } else if (Peek().IsKeyword("desc")) {
        ob.ascending = false;
        Advance();
      }
      order_by_.push_back(std::move(ob));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    return Status::OK();
  }

  // --- assembly ---------------------------------------------------------------------
  Result<StarQuerySpec> Finish() {
    StarQuerySpec spec;
    spec.id = "sql";
    spec.fact_predicate =
        fact_predicates_.empty()
            ? Predicate::True()
            : (fact_predicates_.size() == 1
                   ? fact_predicates_[0]
                   : Predicate::And(fact_predicates_));

    for (const std::string& dim_name : from_dims_) {
      auto join_it = joins_.find(dim_name);
      if (join_it == joins_.end()) {
        return Error(StrCat("dimension '", dim_name,
                            "' has no join condition in WHERE"));
      }
      DimJoinSpec join;
      join.dimension = dim_name;
      join.fact_fk = join_it->second.first;
      join.dim_pk = join_it->second.second;
      auto pred_it = dim_predicates_.find(dim_name);
      if (pred_it != dim_predicates_.end()) {
        join.predicate = pred_it->second.size() == 1
                             ? pred_it->second[0]
                             : Predicate::And(pred_it->second);
      }
      // Aux columns: this dimension's SELECT/GROUP BY columns, select order.
      for (const ColumnRef& ref : select_columns_) {
        if (!ref.from_fact && ref.dimension == dim_name) {
          join.aux_columns.push_back(ref.column);
        }
      }
      spec.dims.push_back(std::move(join));
    }
    // Every join must reference a dimension listed in FROM.
    for (const auto& [dim_name, join] : joins_) {
      if (std::find(from_dims_.begin(), from_dims_.end(), dim_name) ==
          from_dims_.end()) {
        return Error(StrCat("join references '", dim_name,
                            "', which is not in FROM"));
      }
    }
    // Predicates on dimensions that are never joined make no sense.
    for (const auto& [dim_name, preds] : dim_predicates_) {
      if (joins_.count(dim_name) == 0) {
        return Error(StrCat("predicate on '", dim_name,
                            "' without a join condition"));
      }
    }

    spec.aggregates = aggregates_;
    // Group-by order follows the SELECT list (the engine's output order).
    for (const ColumnRef& ref : select_columns_) {
      spec.group_by.push_back(ref.column);
    }
    // Validate ORDER BY against the output columns.
    const std::vector<std::string> output = core::OutputColumnsOf(spec);
    for (const core::OrderBySpec& ob : order_by_) {
      if (std::find(output.begin(), output.end(), ob.column) == output.end()) {
        return Error(StrCat("ORDER BY column '", ob.column,
                            "' is not in the output"));
      }
    }
    spec.order_by = order_by_;
    return spec;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const StarSchema& star_;

  std::vector<ColumnRef> select_columns_;
  std::vector<core::AggSpec> aggregates_;
  bool saw_fact_ = false;
  std::vector<std::string> from_dims_;
  /// dimension -> (fact fk, dim pk)
  std::map<std::string, std::pair<std::string, std::string>> joins_;
  std::vector<Predicate::Ptr> fact_predicates_;
  std::map<std::string, std::vector<Predicate::Ptr>> dim_predicates_;
  std::vector<ColumnRef> group_by_;
  std::vector<core::OrderBySpec> order_by_;
};

}  // namespace

Result<StarQuerySpec> ParseStarQuery(const std::string& sql,
                                     const StarSchema& star) {
  CLY_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), star);
  return parser.Parse();
}

}  // namespace sql
}  // namespace clydesdale
