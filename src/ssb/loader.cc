#include "ssb/loader.h"

#include <algorithm>
#include <climits>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"
#include "storage/binary_row_format.h"
#include "storage/cif.h"
#include "storage/rcfile.h"

namespace clydesdale {
namespace ssb {

namespace {

/// The load's threads: hardware_concurrency() of them, the calling thread
/// included. Run(n, fn) calls fn(0) .. fn(n - 1) across them and returns
/// when every call is done; the calls must write disjoint memory.
class WorkerPool {
 public:
  WorkerPool() {
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 1; i < threads; ++i) {
      threads_.emplace_back([this] { WorkLoop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()) + 1; }

  void Run(int n, const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    next_ = 0;
    end_ = n;
    unfinished_ = n;
    wake_.notify_all();
    while (next_ < end_) RunOne(&lock);
    done_.wait(lock, [this] { return unfinished_ == 0; });
    fn_ = nullptr;
  }

 private:
  /// Claims the next task and runs it with mu_ released.
  void RunOne(std::unique_lock<std::mutex>* lock) {
    const int task = next_++;
    const std::function<void(int)>* fn = fn_;
    lock->unlock();
    (*fn)(task);
    lock->lock();
    if (--unfinished_ == 0) done_.notify_all();
  }

  void WorkLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      wake_.wait(lock, [this] { return stop_ || next_ < end_; });
      if (stop_) return;
      RunOne(&lock);
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* fn_ = nullptr;
  int next_ = 0;
  int end_ = 0;
  int unfinished_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Status ValidateScaleFactor(double sf) {
  // NaN fails every comparison, so it lands in one of the two branches.
  if (!(sf > 0)) {
    return Status::InvalidArgument(
        StrCat("SSB scale factor must be positive, got ", sf));
  }
  // lo_orderkey is an int32: more orders than INT32_MAX would wrap keys.
  // Checked in double, before CardinalitiesFor converts to an integer.
  if (!(1'500'000.0 * sf <= static_cast<double>(INT32_MAX))) {
    return Status::InvalidArgument(
        StrCat("SSB scale factor ", sf,
               " gives more orders than int32 lo_orderkey can number"));
  }
  return Status::OK();
}

/// Generates rows [first_row, first_row + n) into `batch`, in parallel
/// sub-ranges. Column pointers are taken once here, not per row: setting a
/// column's view mode is a write, and the workers must only write values.
Status FillSplit(const SsbGenerator::LineorderIndex& index, uint64_t first_row,
                 uint64_t n, RowBatch* batch, WorkerPool* pool) {
  SsbGenerator::LineorderSink sink;
  for (int c = 0; c < batch->num_columns(); ++c) {
    ColumnVector* col = batch->mutable_column(c);
    if (col->type() == TypeKind::kString) {
      col->mutable_str_views()->resize(n);
      sink.str[c] = col->mutable_str_views()->data();
    } else {
      col->mutable_i32()->resize(n);
      sink.i32[c] = col->mutable_i32()->data();
    }
  }
  const auto parts = static_cast<uint64_t>(pool->size());
  pool->Run(pool->size(), [&](int p) {
    const uint64_t begin = n * static_cast<uint64_t>(p) / parts;
    const uint64_t end = n * static_cast<uint64_t>(p + 1) / parts;
    index.Fill(first_row + begin, end - begin, sink, begin);
  });
  return batch->SealRowCount();
}

/// Writes the fact table to every writer (CIF, then the optional RCFile
/// copy) one split at a time: split k is generated and encoded on the pool,
/// one task per (writer, column), then written on this thread. The DFS
/// sees the serial loader's exact block order — CIF split k, then RCFile
/// group k; a partial last split is written and its writer closed before
/// the next writer's — because every file's replicas are drawn from one
/// shared placement RNG.
Status LoadFact(
    const SsbGenerator::LineorderIndex& index, uint64_t rows_per_split,
    const std::vector<std::unique_ptr<storage::SplitTableWriter>>& writers,
    WorkerPool* pool) {
  RowBatch batch(LineorderSchema());
  const int ncols = batch.num_columns();
  const int tasks = static_cast<int>(writers.size()) * ncols;
  std::vector<std::vector<std::vector<uint8_t>>> encoded(
      writers.size(), std::vector<std::vector<uint8_t>>(
                          static_cast<size_t>(ncols)));
  std::vector<Status> status(static_cast<size_t>(tasks));
  bool closed = false;
  for (uint64_t first = 0; first < index.num_rows(); first += rows_per_split) {
    const uint64_t n = std::min(rows_per_split, index.num_rows() - first);
    CLY_RETURN_IF_ERROR(FillSplit(index, first, n, &batch, pool));
    pool->Run(tasks, [&](int t) {
      const auto w = static_cast<size_t>(t / ncols);
      const int c = t % ncols;
      status[static_cast<size_t>(t)] = writers[w]->EncodeColumn(
          batch, c, &encoded[w][static_cast<size_t>(c)]);
    });
    for (const Status& st : status) CLY_RETURN_IF_ERROR(st);
    closed = n < rows_per_split;
    for (size_t w = 0; w < writers.size(); ++w) {
      CLY_RETURN_IF_ERROR(writers[w]->AppendEncodedSplit(n, encoded[w]));
      if (closed) CLY_RETURN_IF_ERROR(writers[w]->Close());
    }
  }
  if (!closed) {
    for (const auto& w : writers) CLY_RETURN_IF_ERROR(w->Close());
  }
  return Status::OK();
}

/// Generates a dimension's rows in parallel chunks; returns its row stream.
std::vector<uint8_t> EncodeDimension(int64_t rows,
                                     const std::function<Row(int64_t)>& row_for,
                                     WorkerPool* pool) {
  const int chunks =
      static_cast<int>(std::min<int64_t>(rows, int64_t{pool->size()} * 4));
  std::vector<std::vector<uint8_t>> parts(static_cast<size_t>(chunks));
  pool->Run(chunks, [&](int k) {
    const int64_t begin = rows * k / chunks;
    const int64_t end = rows * (k + 1) / chunks;
    std::vector<Row> chunk;
    chunk.reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) chunk.push_back(row_for(i));
    parts[static_cast<size_t>(k)] = storage::EncodeRowStream(chunk);
  });
  std::vector<uint8_t> stream;
  for (std::vector<uint8_t>& part : parts) {
    stream.insert(stream.end(), part.begin(), part.end());
    part = {};
  }
  return stream;
}

/// Writes one dimension to HDFS (binary rows) and installs its column image,
/// its columns encoded in parallel on the pool, as the local replica on
/// every node.
Result<core::DimTableInfo> LoadDimension(
    mr::MrCluster* cluster, const std::string& root, const std::string& name,
    const SchemaPtr& schema, const std::string& pk, int64_t rows,
    const std::function<Row(int64_t)>& row_for, WorkerPool* pool) {
  core::DimTableInfo dim;
  dim.name = name;
  dim.pk = pk;
  dim.local_path = StrCat("/dimcache", root, "/", name);
  dim.desc.path = StrCat(root, "/", name);
  dim.desc.format = storage::kFormatBinaryRow;
  dim.desc.schema = schema;

  std::vector<uint8_t> stream = EncodeDimension(rows, row_for, pool);
  CLY_RETURN_IF_ERROR(
      storage::WriteBinaryRowTable(cluster->dfs(), dim.desc, stream));
  dim.desc.num_rows = static_cast<uint64_t>(rows);
  // (Re)load invalidation: bump the path's catalog version so serving-mode
  // caches never probe a table built from the previous load.
  cluster->InvalidateTable(dim.desc.path);

  CLY_ASSIGN_OR_RETURN(
      const RowBatch columns,
      storage::DecodeRowStreamColumns(schema, stream.data(), stream.size()));
  std::vector<uint8_t> image = storage::EncodeColumnImage(
      columns,
      [pool](int n, const std::function<void(int)>& fn) { pool->Run(n, fn); });
  CLY_RETURN_IF_ERROR(core::InstallDimensionReplicas(
      cluster, dim, hdfs::MakeBlockBuffer(std::move(image))));
  return dim;
}

}  // namespace

Result<SsbDataset> LoadSsb(mr::MrCluster* cluster,
                           const SsbLoadOptions& options) {
  CLY_RETURN_IF_ERROR(ValidateScaleFactor(options.scale_factor));
  SsbGenerator gen(options.scale_factor, options.seed);
  const SsbCardinalities& cards = gen.cardinalities();
  const std::string& root = options.root;
  WorkerPool pool;

  SsbDataset dataset;
  dataset.cards = cards;
  dataset.scale_factor = options.scale_factor;

  // --- rows per split ---------------------------------------------------------
  // The fact table should spread over every node with several splits each so
  // that functional runs exercise scheduling. The cap of one row per 128
  // bytes of DFS block stays as it is: changing it moves every split
  // boundary, and with them every file's bytes.
  const uint64_t block_size = cluster->dfs()->block_size();
  uint64_t rows_per_split = options.rows_per_split;
  if (rows_per_split == 0) {
    const uint64_t approx_rows = cards.orders * 4;
    const uint64_t target_splits =
        static_cast<uint64_t>(cluster->num_nodes()) * 6;
    rows_per_split = std::max<uint64_t>(512, approx_rows / target_splits);
  }
  rows_per_split = std::min<uint64_t>(rows_per_split, block_size / 128);

  // --- fact table (CIF, plus the optional RCFile copy) -------------------------
  storage::TableDesc cif;
  cif.path = StrCat(root, "/lineorder");
  cif.format = storage::kFormatCif;
  cif.schema = LineorderSchema();
  cif.rows_per_split = rows_per_split;
  std::vector<std::unique_ptr<storage::SplitTableWriter>> writers;
  {
    CLY_ASSIGN_OR_RETURN(std::unique_ptr<storage::SplitTableWriter> writer,
                         storage::OpenCifTableWriter(cluster->dfs(), cif));
    writers.push_back(std::move(writer));
  }
  if (options.with_rcfile) {
    dataset.fact_rcfile.path = StrCat(root, "/lineorder_rc");
    dataset.fact_rcfile.format = storage::kFormatRcFile;
    dataset.fact_rcfile.schema = LineorderSchema();
    dataset.fact_rcfile.rows_per_split = rows_per_split;
    CLY_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::SplitTableWriter> writer,
        storage::OpenRcFileTableWriter(cluster->dfs(), dataset.fact_rcfile));
    writers.push_back(std::move(writer));
  }
  const SsbGenerator::LineorderIndex index(&gen);
  CLY_RETURN_IF_ERROR(LoadFact(index, rows_per_split, writers, &pool));
  // Version bumps for the rewritten fact copies (reload invalidation).
  cluster->InvalidateTable(cif.path);
  if (options.with_rcfile) cluster->InvalidateTable(dataset.fact_rcfile.path);
  dataset.lineorder_rows = index.num_rows();
  cif.num_rows = dataset.lineorder_rows;
  dataset.fact_rcfile.num_rows = dataset.lineorder_rows;

  // --- dimensions --------------------------------------------------------------
  std::vector<core::DimTableInfo> dims;
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "customer", CustomerSchema(), "c_custkey",
                      static_cast<int64_t>(cards.customers),
                      [&gen](int64_t i) { return gen.CustomerRow(i + 1); },
                      &pool));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "supplier", SupplierSchema(), "s_suppkey",
                      static_cast<int64_t>(cards.suppliers),
                      [&gen](int64_t i) { return gen.SupplierRow(i + 1); },
                      &pool));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "part", PartSchema(), "p_partkey",
                      static_cast<int64_t>(cards.parts),
                      [&gen](int64_t i) { return gen.PartRow(i + 1); }, &pool));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "date", DateSchema(), "d_datekey",
                      static_cast<int64_t>(cards.dates),
                      [&gen](int64_t i) { return gen.DateRow(i); }, &pool));
    dims.push_back(std::move(dim));
  }

  dataset.star = core::StarSchema(std::move(cif), std::move(dims));
  CLY_LOG(Info) << "loaded SSB sf=" << options.scale_factor << ": "
                << dataset.lineorder_rows << " lineorder rows, "
                << cards.customers << " customers, " << cards.suppliers
                << " suppliers, " << cards.parts << " parts";
  return dataset;
}

}  // namespace ssb
}  // namespace clydesdale
