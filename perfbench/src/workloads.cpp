#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <span>
#include <utility>

#include "answers.h"
#include "common/rng.h"
#include "mlight/naming.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace perfbench {

using mlight::common::Point;
using mlight::common::Rect;
using mlight::core::MLightConfig;
using mlight::index::Record;

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag) noexcept {
  return AnswerPrint::mix(AnswerPrint::mix(seed) ^ tag);
}

void Workload::reset() {
  index_.reset();  // unregisters its store from the network first
  net_.reset();
  dropInputs();
}

void Workload::build() {
  reset();
  const NetShape shape = netShape();
  net_ = std::make_unique<mlight::dht::Network>(shape.peers, shape.seed,
                                                shape.vnodes);
  index_ = std::make_unique<mlight::core::MLightIndex>(*net_, config());
}

std::size_t Workload::checkIndex(std::vector<std::string>& problems) {
  std::size_t failed = 0;
  if (index_->failedInserts() != 0) {
    failed += index_->failedInserts();
    problems.push_back("failedInserts() = " +
                       std::to_string(index_->failedInserts()));
  }
  try {
    index_->checkInvariants();
  } catch (const std::exception& e) {
    ++failed;
    problems.push_back(std::string("checkInvariants: ") + e.what());
  }
  return failed;
}

namespace {

/// The paper's configuration (§7): 2-D, D = 28, threshold split 100/50,
/// no replication; every optional subsystem pinned off.
MLightConfig paperConfig(std::uint64_t seed) {
  MLightConfig cfg;
  cfg.dims = 2;
  cfg.maxEdgeDepth = 28;
  cfg.strategy = mlight::core::SplitStrategy::kThreshold;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  cfg.lookahead = 1;
  cfg.replication = 1;
  cfg.seed = seed;
  cfg.wal = false;
  cfg.cache.enabled = false;
  cfg.loadBalance.enabled = false;
  return cfg;
}

/// Synthetic NE records generated in fixed-size blocks, each from its own
/// seed, with ids `idBase + position`: an unbounded stream whose content
/// does not depend on how far a run gets.
class RecordStream {
 public:
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  RecordStream(std::uint64_t seed, std::uint64_t idBase)
      : seed_(seed), idBase_(idBase) {}

  /// Record number `n` (generating its block on first use).
  const Record& at(std::size_t n) {
    const std::size_t block = n / kBlock;
    if (block != loaded_) {
      records_ = mlight::workload::northeastDataset(kBlock,
                                                    subSeed(seed_, block));
      for (std::size_t j = 0; j < records_.size(); ++j) {
        records_[j].id = idBase_ + block * kBlock + j;
      }
      loaded_ = block;
    }
    return records_[n % kBlock];
  }

 private:
  std::uint64_t seed_;
  std::uint64_t idBase_;
  std::size_t loaded_ = static_cast<std::size_t>(-1);
  std::vector<Record> records_;
};

// --- ingest_large_ring ------------------------------------------------------

class IngestLargeRing final : public Workload {
 public:
  static constexpr std::size_t kPeers = 10240;

  using Workload::Workload;

  const char* name() const override { return "ingest_large_ring"; }
  NetShape netShape() const override {
    return {kPeers, subSeed(seed_, 1), 1};
  }
  MLightConfig config() const override {
    return paperConfig(subSeed(seed_, 2));
  }
  std::size_t checkedOps() const override { return 100000; }

  /// The index starts empty: ingesting into it is the workload.
  void setup() override {
    build();
    stream_.emplace(subSeed(seed_, 3), 0);
    stream_->at(0);  // generates the first block of records
  }

  void prepare(std::size_t i) override {
    cur_ = &stream_->at(i);
    simBefore_ = net_->now();
    failedBefore_ = index_->failedInserts();
  }

  OpKind exec(std::size_t) override {
    index_->insert(*cur_);
    return OpKind::kInsert;
  }

  OpOutcome inspect(std::size_t) override {
    ++inserted_;
    return {index_->failedInserts() == failedBefore_, 1,
            net_->now() - simBefore_, 1, 0};
  }

  void opPoints(std::vector<Point>& out) const override {
    out.push_back(cur_->key);
  }

  std::size_t finalCheck(std::vector<std::string>& problems) override {
    std::size_t failed = checkIndex(problems);
    if (index_->size() != inserted_) {
      ++failed;
      problems.push_back("size() = " + std::to_string(index_->size()) +
                         ", expected " + std::to_string(inserted_));
    }
    return failed;
  }

 private:
  void dropInputs() override {
    stream_.reset();
    cur_ = nullptr;
    inserted_ = 0;
  }

  std::optional<RecordStream> stream_;
  const Record* cur_ = nullptr;
  double simBefore_ = 0.0;
  std::size_t failedBefore_ = 0;
  std::size_t inserted_ = 0;
};

// --- range_scan -------------------------------------------------------------

class RangeScan final : public Workload {
 public:
  static constexpr std::size_t kPeers = 128;
  static constexpr std::size_t kWarmup = 100;
  /// Range spans (areas) are log-uniform over the small end of the
  /// Fig 7 sweep.
  static constexpr double kMinSpan = 0.0001;
  static constexpr double kMaxSpan = 0.05;

  using Workload::Workload;

  const char* name() const override { return "range_scan"; }
  NetShape netShape() const override { return {kPeers, subSeed(seed_, 1), 1}; }
  MLightConfig config() const override {
    MLightConfig cfg = paperConfig(subSeed(seed_, 2));
    cfg.lookahead = 2;
    return cfg;
  }
  std::size_t checkedOps() const override { return 6000; }

  void setup() override {
    build();
    data_ = mlight::workload::northeastDataset(mlight::workload::kNortheastSize,
                                               subSeed(seed_, 3));
    index_->bulkLoad(data_);
    queries_ = squareQueries(kWarmup + checkedOps(), subSeed(seed_, 9));
    for (std::size_t q = 0; q < kWarmup; ++q) index_->rangeQuery(queries_[q]);
  }

  void prepare(std::size_t i) override { cur_ = kWarmup + i; }

  OpKind exec(std::size_t) override {
    last_ = index_->rangeQuery(queries_[cur_]);
    return OpKind::kRangeQuery;
  }

  OpOutcome inspect(std::size_t) override {
    prints_.emplace_back(cur_, fingerprint(last_.records));
    const OpOutcome out{last_.stats.complete(), 0, last_.stats.latencyMs, 0,
                        last_.stats.rounds};
    last_ = {};
    return out;
  }

  void opPoints(std::vector<Point>& out) const override {
    out.push_back(queries_[cur_].lo());
    out.push_back(queries_[cur_].hi());
  }

  std::size_t finalCheck(std::vector<std::string>& problems) override {
    std::size_t failed = checkIndex(problems);
    const GridOracle oracle(data_);
    std::size_t wrong = 0;
    for (const auto& [q, got] : prints_) {
      const AnswerPrint want = oracle.answer(queries_[q]);
      if (want == got) continue;
      if (wrong++ == 0) {
        problems.push_back("range query " + std::to_string(q) + ": " +
                           std::to_string(got.count) + " records, oracle " +
                           std::to_string(want.count));
      }
    }
    if (wrong > 1) {
      problems.push_back(std::to_string(wrong) + " wrong range answers");
    }
    return failed + wrong;
  }

 private:
  void dropInputs() override {
    data_.clear();
    data_.shrink_to_fit();
    queries_.clear();
    prints_.clear();
    last_ = {};
  }

  /// Squares of log-uniform area placed uniformly inside the unit square
  /// (the placement rule of workload::uniformRangeQueries).
  static std::vector<Rect> squareQueries(std::size_t count,
                                         std::uint64_t seed) {
    mlight::common::Rng rng(seed);
    std::vector<Rect> out;
    out.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
      const double span =
          std::exp(rng.uniform(std::log(kMinSpan), std::log(kMaxSpan)));
      const double side = std::sqrt(span);
      const double x = rng.uniform(0.0, 1.0 - side);
      const double y = rng.uniform(0.0, 1.0 - side);
      out.emplace_back(Point{x, y}, Point{x + side, y + side});
    }
    return out;
  }

  std::vector<Record> data_;
  std::vector<Rect> queries_;
  std::size_t cur_ = 0;
  mlight::index::RangeResult last_;
  std::vector<std::pair<std::size_t, AnswerPrint>> prints_;
};

// --- hotspot_rw -------------------------------------------------------------

class HotspotRw final : public Workload {
 public:
  static constexpr std::size_t kPeers = 128;
  static constexpr std::size_t kVnodes = 8;
  static constexpr std::size_t kRecords = 30000;
  static constexpr std::size_t kBatch = 16;
  static constexpr double kWriteShare = 0.1;
  static constexpr double kZipfTheta = 0.9;
  static constexpr std::size_t kWarmupOps = 16000;

  using Workload::Workload;

  const char* name() const override { return "hotspot_rw"; }
  NetShape netShape() const override {
    return {kPeers, subSeed(seed_, 1), kVnodes};
  }
  MLightConfig config() const override {
    MLightConfig cfg = paperConfig(subSeed(seed_, 2));
    cfg.thetaSplit = 16;
    cfg.thetaMerge = 8;
    cfg.wal = true;
    cfg.cache.enabled = true;
    cfg.cache.perDimCapacity = 4096;
    cfg.loadBalance.enabled = true;
    cfg.loadBalance.promoteReads = 16;
    cfg.loadBalance.boostCopies = 15;
    // One heat window spanning the whole run: the hotspot is stationary,
    // so hot leaves are promoted during warm-up and stay promoted.
    cfg.loadBalance.windowMs = 1e9;
    return cfg;
  }
  std::size_t checkedOps() const override { return 15000; }

  void setup() override {
    build();
    data_ = mlight::workload::northeastDataset(kRecords, subSeed(seed_, 3));
    index_->bulkLoad(data_);
    // Every vnode's hint cache starts out knowing the whole leaf set.
    std::vector<mlight::common::BitString> leaves;
    index_->store().forEach([&](const mlight::common::BitString&,
                                const mlight::core::LeafBucket& b,
                                mlight::dht::RingId) {
      leaves.push_back(b.label);
    });
    for (const auto peer : net_->peers()) {
      auto& cache = index_->hintCaches().forPeer(peer.value);
      for (const auto& leaf : leaves) {
        cache.learn(leaf, static_cast<std::uint32_t>(
                              mlight::core::edgeDepth(leaf, 2)));
      }
    }
    // Warm-up on the reads of an independent op stream: hot leaves are
    // promoted and hints carry their replica sets.  Its writes are
    // skipped so the pre-warmed hints start the timed phase fresh.
    ops_.emplace(seed_, 5, data_.size());
    for (std::size_t w = 0; w < kWarmupOps; ++w) {
      prepare(w);
      if (isWrite_) continue;
      exec(w);
      inspect(w);
    }
    ops_.emplace(seed_, 6, data_.size());
  }

  void prepare(std::size_t) override {
    isWrite_ = ops_->nextIsWrite();
    if (isWrite_) {
      batch_.clear();
      for (std::size_t k = 0; k < kBatch; ++k) batch_.push_back(ops_->fresh());
    } else {
      target_ = &data_[ops_->zipfRank()];
    }
    simBefore_ = net_->now();
  }

  OpKind exec(std::size_t) override {
    if (isWrite_) {
      lastBatch_ = index_->insertBatched(batch_, kBatch);
      return OpKind::kBatchInsert;
    }
    lastPoint_ = index_->pointQuery(target_->key);
    return OpKind::kPointQuery;
  }

  OpOutcome inspect(std::size_t) override {
    if (isWrite_) {
      return {lastBatch_.acked == kBatch && lastBatch_.failed == 0, kBatch,
              net_->now() - simBefore_, lastBatch_.groups, 0};
    }
    const bool found = std::any_of(
        lastPoint_.records.begin(), lastPoint_.records.end(),
        [&](const Record& r) { return r.id == target_->id && r.key == target_->key; });
    const OpOutcome out{found && lastPoint_.stats.complete(), 0,
                        lastPoint_.stats.latencyMs, 1, 0};
    lastPoint_ = {};
    return out;
  }

  void opPoints(std::vector<Point>& out) const override {
    if (!isWrite_) {
      out.push_back(target_->key);
      return;
    }
    for (const Record& r : batch_) out.push_back(r.key);
  }

  std::size_t finalCheck(std::vector<std::string>& problems) override {
    return checkIndex(problems);
  }

 private:
  /// One seeded op stream: the write/read coin, Zipf ranks and fresh
  /// records, each drawn in order.
  class OpStream {
   public:
    OpStream(std::uint64_t seed, std::uint64_t tag, std::size_t records)
        : seed_(subSeed(seed, tag)), records_(records), coin_(seed_),
          fresh_(subSeed(seed_, 1), (std::uint64_t{1} << 40) * (tag + 1)) {}

    bool nextIsWrite() { return coin_.uniform() < kWriteShare; }
    const Record& fresh() { return fresh_.at(freshUsed_++); }
    std::size_t zipfRank() {
      if (zipfUsed_ == zipf_.size()) {
        zipf_ = mlight::workload::zipfIndices(
            kZipfBlock, records_, kZipfTheta,
            subSeed(seed_, 1000 + zipfBlocks_++));
        zipfUsed_ = 0;
      }
      return zipf_[zipfUsed_++];
    }

   private:
    static constexpr std::size_t kZipfBlock = std::size_t{1} << 16;
    std::uint64_t seed_;
    std::size_t records_;
    mlight::common::Rng coin_;
    RecordStream fresh_;
    std::size_t freshUsed_ = 0;
    std::vector<std::size_t> zipf_;
    std::size_t zipfUsed_ = 0;
    std::uint64_t zipfBlocks_ = 0;
  };

  void dropInputs() override {
    ops_.reset();
    data_.clear();
    data_.shrink_to_fit();
    batch_.clear();
    target_ = nullptr;
    lastPoint_ = {};
  }

  std::vector<Record> data_;
  std::optional<OpStream> ops_;
  bool isWrite_ = false;
  const Record* target_ = nullptr;
  std::vector<Record> batch_;
  double simBefore_ = 0.0;
  mlight::index::PointResult lastPoint_;
  mlight::core::MLightIndex::BatchResult lastBatch_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       std::uint64_t seed) {
  if (name == "ingest_large_ring") {
    return std::make_unique<IngestLargeRing>(seed);
  }
  if (name == "range_scan") return std::make_unique<RangeScan>(seed);
  if (name == "hotspot_rw") return std::make_unique<HotspotRw>(seed);
  return nullptr;
}

}  // namespace perfbench
