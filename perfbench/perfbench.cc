// dicho_perfbench: runs one workload of the repo benchmark (README.md in
// this directory) in this process, checks its outputs, and prints one JSON
// report line for run.py.
//
//   dicho_perfbench --workload etcd-ycsb-a --seed 1 --seconds 10 --trace 0
//
// Untraced (--trace 0): the workload is built, loaded, driven and checked
// anew again and again until --seconds of host time have passed (at
// least three repetitions). Host metrics are medians over the repetitions;
// every repetition must reproduce the first one's modeled results exactly.
// Traced (--trace 1): one untraced repetition, then one with the trace sink
// and metrics registry attached; the per-layer breakdown comes from those
// two, and their modeled results must be bit-identical.
//
// Everything is measured from outside the library: the benchmark times its
// own calls into each layer (Load, the workload generators, Driver::Run) and
// reads the layers' public counters afterwards.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "contract/contract.h"
#include "crypto/sha256.h"

namespace dicho::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using bench::World;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t HashOf(const std::string& s) { return std::hash<std::string>{}(s); }

/// Hash of a value read back from state; nullopt when the read failed.
std::optional<uint64_t> HashOfRead(const Status& s, const std::string& value) {
  return s.ok() ? std::optional<uint64_t>(HashOf(value)) : std::nullopt;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001B3ull + (h >> 29);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct Spec {
  const char* name;
  uint64_t records;
  size_t clients;         // closed-loop clients; 0 = open loop
  double rate_tps;        // open-loop Poisson rate
  double query_fraction;  // share of requests issued as point queries
  sim::Time warmup;
  sim::Time measure;
  /// Independent worlds per run, each with its own seed derived from
  /// --seed; the modeled metrics pool their measurement windows. A single
  /// world's latencies carry a seed-specific offset (the phase of its
  /// election and epoch timers), which pooling averages out.
  size_t worlds;
};

// The pooled windows of a run hold well over 10,000 committed transactions
// (p99.9 then has at least ten samples beyond it). The harmony rate is ~80%
// of its closed-loop saturation (measured with --probe-saturation).
constexpr Spec kSpecs[] = {
    {"etcd-ycsb-a", 20000, 400, 0, 0.5, 0.5 * sim::kSec, 1.0 * sim::kSec, 3},
    {"harmony-ycsb-open", 10000, 0, 3300, 0, 0.5 * sim::kSec,
     1.0 * sim::kSec, 12},
    {"tidb-smallbank-skew", 100000, 256, 0, 0, 0.5 * sim::kSec,
     2.0 * sim::kSec, 12},
    {"spanner-ycsb-xshard", bench::CrossRatioWorkload::kRecordCount, 400, 0, 0,
     0.3 * sim::kSec, 0.5 * sim::kSec, 16},
};

/// Seed of world `index` of a run: distinct for every (seed, index) pair.
uint64_t WorldSeed(uint64_t seed, size_t index) { return seed * 16 + index; }

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Outcome bookkeeping.

/// Wraps the system under test so the benchmark sees every request and
/// every outcome. Each submitted op must resolve exactly once; the records
/// feed the state checks after the drain.
class CheckedSystem : public core::TransactionalSystem {
 public:
  struct TxnRecord {
    std::vector<std::pair<std::string, uint64_t>> writes;  // key, value hash
    core::TxnRequest request;  // kept for method-based (Smallbank) txns only
    std::map<std::string, std::string> reads;  // committed Smallbank txns
    uint32_t resolutions = 0;
    bool ok = false;
    bool shed = false;  // rejected at an admission gate
    sim::Time finish = 0;
    sim::Time latency = 0;
  };
  struct QueryRecord {
    std::string key;
    uint64_t value_hash = 0;
    uint32_t resolutions = 0;
    bool ok = false;
    sim::Time finish = 0;
    sim::Time latency = 0;
  };

  explicit CheckedSystem(core::TransactionalSystem* inner) : inner_(inner) {}

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override {
    size_t slot = txns_.size();
    TxnRecord& rec = txns_.emplace_back();
    for (const core::Op& op : request.ops) {
      if (op.type != core::OpType::kRead) {
        rec.writes.emplace_back(op.key, HashOf(op.value));
      }
    }
    if (!request.method.empty()) rec.request = request;
    if (slot < kDigestOps) Digest(request.Serialize());
    inner_->Submit(request, [this, slot, cb = std::move(cb)](
                                const core::TxnResult& result) {
      TxnRecord& r = txns_[slot];
      r.resolutions++;
      r.ok = result.status.ok();
      r.shed = result.reason == core::AbortReason::kAdmissionReject;
      r.finish = result.finish_time;
      r.latency = result.latency();
      if (r.ok && !r.request.method.empty()) r.reads = result.reads;
      cb(result);
    });
  }

  void Query(const core::ReadRequest& request, core::ReadCallback cb) override {
    size_t slot = queries_.size();
    queries_.push_back(QueryRecord{request.key, 0, 0, false, 0, 0});
    if (slot < kDigestOps) Digest(request.key);
    inner_->Query(request, [this, slot, cb = std::move(cb)](
                               const core::ReadResult& result) {
      QueryRecord& q = queries_[slot];
      q.resolutions++;
      q.ok = result.status.ok();
      q.value_hash = HashOf(result.value);
      q.finish = result.finish_time;
      q.latency = result.latency();
      cb(result);
    });
  }

  const core::SystemStats& stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

  void Load(const std::string& key, const std::string& value) override {
    if (loaded_.size() < kDigestOps) Digest(value);
    loaded_.emplace(key, HashOf(value));
    inner_->Load(key, value);
  }

  const std::deque<TxnRecord>& txns() const { return txns_; }
  const std::deque<QueryRecord>& queries() const { return queries_; }
  const std::unordered_map<std::string, uint64_t>& loaded() const {
    return loaded_;
  }
  uint64_t inputs_digest() const { return inputs_digest_; }

 private:
  /// The input digest covers the first loads and requests: enough to tell
  /// two seeds apart without hashing every request on the timed path.
  static constexpr size_t kDigestOps = 256;
  void Digest(const std::string& input) {
    inputs_digest_ = Mix(inputs_digest_, HashOf(input));
  }

  core::TransactionalSystem* inner_;
  std::deque<TxnRecord> txns_;
  std::deque<QueryRecord> queries_;
  std::unordered_map<std::string, uint64_t> loaded_;
  uint64_t inputs_digest_ = 0xcbf29ce484222325ull;
};

/// Resolution counts over every submitted op (warm-up and drain included).
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;  // aborts, admission rejections and failed queries
  uint64_t answered = 0;
  uint64_t unresolved = 0;
  uint64_t resolved_twice = 0;
  uint64_t committed_writes = 0;
};

Outcomes CountOutcomes(const CheckedSystem& checked) {
  Outcomes o;
  for (const auto& t : checked.txns()) {
    o.attempted++;
    if (t.resolutions == 0) {
      o.unresolved++;
    } else if (t.resolutions > 1) {
      o.resolved_twice++;
    } else if (t.ok) {
      o.committed++;
      o.committed_writes += t.writes.size();
    } else {
      o.aborted++;
    }
  }
  for (const auto& q : checked.queries()) {
    o.attempted++;
    if (q.resolutions == 0) {
      o.unresolved++;
    } else if (q.resolutions > 1) {
      o.resolved_twice++;
    } else if (q.ok) {
      o.answered++;
    } else {
      o.aborted++;
    }
  }
  return o;
}

using FinalValue = std::function<std::optional<uint64_t>(const std::string&)>;

/// The YCSB state check shared by the key-value workloads. Values are
/// random, so a value hash names the write that produced it. Every key must
/// hold its loaded value when no committed transaction wrote it, and
/// otherwise a value some committed transaction wrote (never its loaded
/// value, never one from an aborted transaction). Every answered query must
/// return a value that a load or a submitted write put there.

std::string CheckYcsbState(const CheckedSystem& checked,
                           const FinalValue& final_of) {
  std::unordered_map<std::string, std::unordered_set<uint64_t>> committed;
  std::unordered_map<std::string, std::unordered_set<uint64_t>> submitted;
  for (const auto& t : checked.txns()) {
    for (const auto& [key, hash] : t.writes) {
      submitted[key].insert(hash);
      if (t.resolutions == 1 && t.ok) committed[key].insert(hash);
    }
  }
  for (const auto& [key, loaded_hash] : checked.loaded()) {
    std::optional<uint64_t> final_hash = final_of(key);
    if (!final_hash) return "key missing from state: " + key;
    auto it = committed.find(key);
    if (it == committed.end()) {
      if (*final_hash != loaded_hash) return "unwritten key changed: " + key;
    } else if (it->second.count(*final_hash) == 0) {
      return "key holds no committed write: " + key;
    }
  }
  for (const auto& q : checked.queries()) {
    if (q.resolutions != 1 || !q.ok) continue;
    auto loaded = checked.loaded().find(q.key);
    if (loaded == checked.loaded().end()) return "query of unknown key";
    if (q.value_hash == loaded->second) continue;
    auto it = submitted.find(q.key);
    if (it == submitted.end() || it->second.count(q.value_hash) == 0) {
      return "query returned a value nobody wrote: " + q.key;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Per-workload harnesses.

/// Counters read from the layers' public accessors before and after the
/// driven run.
struct LayerCounters {
  double mpt_node_bytes = 0;
  double mpt_reuse_hits = 0;
  double btree_bytes = 0;
  double lock_waits = 0;
  double two_pc_rounds = 0;
  double sharded_txns = 0;
};

class Harness {
 public:
  virtual ~Harness() = default;
  /// Builds the system (Start + one virtual second of election), wraps it
  /// in `checked_`, and loads every record on every replica through it.
  virtual void Setup(World* w, uint64_t seed, uint64_t records,
                     double* load_s) = 0;
  /// The system under test, behind the outcome-recording wrapper.
  CheckedSystem* system() { return checked_.get(); }
  virtual core::TxnRequest NextTxn() = 0;
  virtual bool has_queries() const { return false; }
  virtual core::ReadRequest NextRead() { return {}; }
  /// Replica agreement and the workload's state invariant after the drain;
  /// empty when everything holds, else the first violation.
  virtual std::string CheckState(World* w, const CheckedSystem& checked) = 0;
  virtual LayerCounters Counters() const { return {}; }

 protected:
  std::unique_ptr<CheckedSystem> checked_;
};

template <typename Fn>
double TimeIt(Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

class EtcdHarness : public Harness {
 public:
  void Setup(World* w, uint64_t seed, uint64_t records,
             double* load_s) override {
    system_ = bench::MakeEtcd(w, 5);
    checked_ = std::make_unique<CheckedSystem>(system_.get());
    workload::YcsbConfig cfg;
    cfg.record_count = records;
    cfg.read_modify_write = false;  // blind single-record updates
    gen_ = std::make_unique<workload::YcsbWorkload>(cfg, seed);
    *load_s = TimeIt([&] {
      for (uint64_t i = 0; i < records; i++) {
        checked_->Load(gen_->KeyAt(i), gen_->RandomValue());
      }
    });
  }
  core::TxnRequest NextTxn() override { return gen_->NextTxn(); }
  bool has_queries() const override { return true; }
  core::ReadRequest NextRead() override { return gen_->NextRead(); }

  std::string CheckState(World*, const CheckedSystem& checked) override {
    // All five B-trees must hold identical contents.
    uint64_t first = 0;
    for (sim::NodeId node = 0; node < 5; node++) {
      uint64_t digest = 0;
      auto it = system_->state_of(node)->NewIterator();
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        digest = Mix(Mix(digest, HashOf(it->key().ToString())),
                     HashOf(it->value().ToString()));
      }
      if (node == 0) first = digest;
      if (digest != first) return "etcd replica state diverges";
    }
    storage::btree::BTree* leader_state = system_->state_of(0);
    return CheckYcsbState(checked, [&](const std::string& key) {
      std::string value;
      Status s = leader_state->Get(key, &value);
      return HashOfRead(s, value);
    });
  }

  LayerCounters Counters() const override {
    LayerCounters c;
    c.btree_bytes = static_cast<double>(system_->StateBytes());
    return c;
  }

 private:
  std::unique_ptr<systems::EtcdSystem> system_;
  std::unique_ptr<workload::YcsbWorkload> gen_;
};

class HarmonyHarness : public Harness {
 public:
  void Setup(World* w, uint64_t seed, uint64_t records,
             double* load_s) override {
    system_ = bench::MakeHarmony(w, 5);
    checked_ = std::make_unique<CheckedSystem>(system_.get());
    workload::YcsbConfig cfg;
    cfg.record_count = records;  // single-record 1 KB read-modify-write
    gen_ = std::make_unique<workload::YcsbWorkload>(cfg, seed);
    *load_s = TimeIt([&] {
      for (uint64_t i = 0; i < records; i++) {
        checked_->Load(gen_->KeyAt(i), gen_->RandomValue());
      }
    });
  }
  core::TxnRequest NextTxn() override { return gen_->NextTxn(); }

  std::string CheckState(World*, const CheckedSystem& checked) override {
    // Replica MPT roots and chain heads must agree.
    const auto& ids = system_->node_ids();
    const auto& s0 = system_->state_of(ids[0]);
    const auto& c0 = system_->chain_of(ids[0]);
    for (sim::NodeId id : ids) {
      if (system_->state_of(id).RootDigest() != s0.RootDigest()) {
        return "harmony replica MPT roots diverge";
      }
      const ledger::Chain& chain = system_->chain_of(id);
      if (chain.height() != c0.height() ||
          chain.TipDigest() != c0.TipDigest()) {
        return "harmony replica chain heads diverge";
      }
    }
    if (!c0.Verify().ok()) return "harmony chain fails verification";
    return CheckYcsbState(checked, [&](const std::string& key) {
      std::string value;
      Status s = s0.Get(key, &value);
      return HashOfRead(s, value);
    });
  }

  LayerCounters Counters() const override {
    LayerCounters c;
    for (sim::NodeId id : system_->node_ids()) {
      c.mpt_node_bytes +=
          static_cast<double>(system_->state_of(id).TotalNodeBytes());
      c.mpt_reuse_hits +=
          static_cast<double>(system_->state_of(id).batch_reuse_hits());
    }
    return c;
  }

 private:
  std::unique_ptr<systems::HarmonySystem> system_;
  std::unique_ptr<workload::YcsbWorkload> gen_;
};

/// StateView over the values a committed Smallbank transaction read.
class ReadsView : public contract::StateView {
 public:
  explicit ReadsView(const std::map<std::string, std::string>* reads)
      : reads_(reads) {}
  Status Get(const Slice& key, std::string* value) override {
    auto it = reads_->find(key.ToString());
    if (it == reads_->end()) return Status::NotFound();
    *value = it->second;
    return Status::Ok();
  }

 private:
  const std::map<std::string, std::string>* reads_;
};

class TidbHarness : public Harness {
 public:
  void Setup(World* w, uint64_t seed, uint64_t records,
             double* load_s) override {
    system_ = bench::MakeTidb(w, 5, 5);
    checked_ = std::make_unique<CheckedSystem>(system_.get());
    workload::SmallbankConfig cfg;
    cfg.num_accounts = records;
    cfg.theta = 1.0;  // the paper's Fig 6 skew
    gen_ = std::make_unique<workload::SmallbankWorkload>(cfg, seed);
    *load_s = TimeIt(
        [&] { bench::LoadSmallbank(checked_.get(), gen_.get(), records); });
    records_ = records;
  }
  core::TxnRequest NextTxn() override { return gen_->NextTxn(); }

  /// Money is conserved up to what committed transactions added or took:
  /// re-executing each committed transaction's contract call on the values
  /// it read gives exactly what it wrote. Snapshot isolation admits no lost
  /// update, so the final total must equal the initial total plus the sum
  /// of those deltas. No lock may survive the drain.
  std::string CheckState(World*, const CheckedSystem& checked) override {
    using contract::SmallbankContract;
    SmallbankContract contract;
    int64_t expected = static_cast<int64_t>(records_) *
                       (gen_->config().initial_checking +
                        gen_->config().initial_savings);
    for (const auto& t : checked.txns()) {
      if (t.resolutions != 1 || !t.ok) continue;
      ReadsView view(&t.reads);
      contract::WriteSet writes;
      if (!contract.Execute(t.request, &view, &writes, nullptr).ok()) {
        return "committed smallbank txn does not replay: " + t.request.method;
      }
      for (const auto& [key, value] : writes) {
        auto read = t.reads.find(key);
        if (read == t.reads.end()) return "smallbank write without read";
        expected += SmallbankContract::DecodeBalance(value) -
                    SmallbankContract::DecodeBalance(read->second);
      }
    }
    int64_t total = 0;
    for (uint64_t i = 0; i < records_; i++) {
      std::string cust = gen_->CustomerAt(i);
      for (const std::string& key : {SmallbankContract::CheckingKey(cust),
                                     SmallbankContract::SavingsKey(cust)}) {
        const txn::MvccStore& store =
            system_->region_store(system_->RegionOf(key));
        if (store.IsLocked(key)) return "lock left behind on " + key;
        std::string value;
        if (!store.GetSnapshot(key, UINT64_MAX / 2, &value).ok()) {
          return "account missing: " + key;
        }
        total += SmallbankContract::DecodeBalance(value);
      }
    }
    if (total != expected) {
      return "smallbank money not conserved: " + std::to_string(total) +
             " != " + std::to_string(expected);
    }
    return "";
  }

 private:
  std::unique_ptr<systems::TidbSystem> system_;
  std::unique_ptr<workload::SmallbankWorkload> gen_;
  uint64_t records_ = 0;
};

class SpannerHarness : public Harness {
 public:
  static constexpr uint32_t kShards = 4;

  void Setup(World* w, uint64_t seed, uint64_t records,
             double* load_s) override {
    systems::runtime::SystemOverrides overrides;
    overrides.nodes = kShards;
    overrides.aux_nodes = 3;  // replicas per shard
    system_ = systems::runtime::MakeSystemAs<systems::SpannerLikeSystem>(
        "spannerlike", &w->sim, &w->net, &w->costs, overrides);
    checked_ = std::make_unique<CheckedSystem>(system_.get());
    gen_ = std::make_unique<bench::CrossRatioWorkload>(kShards, 0.2, seed);
    *load_s = TimeIt([&] {
      for (uint64_t i = 0; i < records; i++) {
        checked_->Load(bench::CrossRatioWorkload::KeyAt(i),
                       gen_->RandomValue());
      }
    });
  }
  core::TxnRequest NextTxn() override { return gen_->NextTxn(); }

  /// Shard state is reachable only through Query, so the check reads every
  /// loaded key back through the system after the drain.
  std::string CheckState(World* w, const CheckedSystem& checked) override {
    std::unordered_map<std::string, std::optional<uint64_t>> finals;
    for (const auto& [key, hash] : checked.loaded()) {
      core::ReadRequest read;
      read.key = key;
      system_->Query(read, [&finals, key = key](const core::ReadResult& r) {
        finals[key] = HashOfRead(r.status, r.value);
      });
    }
    w->sim.RunFor(10 * sim::kSec);
    if (finals.size() != checked.loaded().size()) {
      return "spanner check queries did not complete";
    }
    return CheckYcsbState(checked,
                          [&](const std::string& key) { return finals[key]; });
  }

  LayerCounters Counters() const override {
    LayerCounters c;
    c.lock_waits = static_cast<double>(system_->lock_waits());
    const sharding::ShardingStats& s = system_->sharding_stats();
    c.two_pc_rounds = static_cast<double>(s.two_pc_rounds);
    c.sharded_txns =
        static_cast<double>(s.single_shard_txns + s.cross_shard_txns);
    return c;
  }

 private:
  std::unique_ptr<systems::SpannerLikeSystem> system_;
  std::unique_ptr<bench::CrossRatioWorkload> gen_;
};

std::unique_ptr<Harness> MakeHarness(const std::string& name) {
  if (name == "etcd-ycsb-a") return std::make_unique<EtcdHarness>();
  if (name == "harmony-ycsb-open") return std::make_unique<HarmonyHarness>();
  if (name == "tidb-smallbank-skew") return std::make_unique<TidbHarness>();
  if (name == "spanner-ycsb-xshard") return std::make_unique<SpannerHarness>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// One repetition: set up, drive, drain, check.

/// Results of the model: bit-identical for a fixed seed on any host.
struct Modeled {
  // Latencies of the ops that resolved inside the measurement window, with
  // workload::Driver's filter (admission rejections excluded).
  std::vector<double> window_txn_us;
  std::vector<double> window_query_us;
  uint64_t window_committed = 0;
  double abort_rate = 0;
  std::map<core::AbortReason, uint64_t> aborts_by_reason;
  std::map<core::Phase, double> phase_p50_ms;
  Outcomes outcomes;
  // Deterministic work counters of the driven run.
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  LayerCounters layers;
  core::StageGauges stages;
  uint64_t inputs_digest = 0;

  bool operator==(const Modeled& o) const {
    auto same_layers = [](const LayerCounters& a, const LayerCounters& b) {
      return a.mpt_node_bytes == b.mpt_node_bytes &&
             a.mpt_reuse_hits == b.mpt_reuse_hits &&
             a.btree_bytes == b.btree_bytes && a.lock_waits == b.lock_waits &&
             a.two_pc_rounds == b.two_pc_rounds &&
             a.sharded_txns == b.sharded_txns;
    };
    const Outcomes& a = outcomes;
    const Outcomes& b = o.outcomes;
    return window_txn_us == o.window_txn_us &&
           window_query_us == o.window_query_us &&
           abort_rate == o.abort_rate &&
           window_committed == o.window_committed &&
           aborts_by_reason == o.aborts_by_reason &&
           phase_p50_ms == o.phase_p50_ms && a.attempted == b.attempted &&
           a.committed == b.committed && a.aborted == b.aborted &&
           a.answered == b.answered && a.unresolved == b.unresolved &&
           events == o.events && messages == o.messages && bytes == o.bytes &&
           same_layers(layers, o.layers) &&
           stages.enqueued == o.stages.enqueued &&
           stages.batches_cut == o.stages.batches_cut &&
           stages.mempool_peak == o.stages.mempool_peak &&
           stages.inflight_peak == o.stages.inflight_peak &&
           inputs_digest == o.inputs_digest;
  }
};

/// Host-side measurements of one repetition.
struct Host {
  double ref_s = 0;  // ReferenceSeconds() around this repetition
  double setup_s = 0;
  double load_s = 0;
  double run_s = 0;
  double gen_s = 0;
  uint64_t gen_calls = 0;
  double cpu_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
};

/// Figures only a traced repetition can give.
struct Traced {
  double raft_log_entries = 0;
  double raft_commit_p50_ms = 0;
  double tidb_retries = 0;
  double busiest_cpu_util = 0;
  std::string busiest_node;
};

struct Rep {
  Modeled modeled;
  Host host;
  Traced traced;
  std::string failure;  // empty when the correctness gate passed
};

struct Usage {
  double user_s, sys_s, minor_faults, max_rss_mb;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime),
               static_cast<double>(ru.ru_minflt), ru.ru_maxrss / 1024.0};
}

std::map<std::string, double> CpuBusyGauges(const obs::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  const std::string suffix = ".cpu_busy_us";
  reg.ForEachGauge([&](const std::string& name, const obs::Gauge& g) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out[name.substr(0, name.size() - suffix.size())] = g.value();
    }
  });
  return out;
}

/// What ReferenceSeconds() takes on the uncontended 4-core VM the bounds
/// were tuned on. The gated host times are reported in reference seconds:
/// host seconds × kReferenceS / the kernel's time around the same
/// repetition.
constexpr double kReferenceS = 0.070;

volatile uint64_t reference_sink = 0;

/// Host seconds of one pass of a fixed kernel that uses no dicho code:
/// sorting, hashing and random reads over a 4 MB array. Timed around every
/// repetition, it measures how fast the shared host runs at that moment.
/// Other tenants slow identical work by up to 1.6x for seconds to minutes;
/// the kernel slows with it, so host times divided by it vary ~3x less
/// between runs than raw host times.
double ReferenceSeconds() {
  Clock::time_point t0 = Clock::now();
  std::vector<uint64_t> data(1 << 19);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t& v : data) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::sort(data.begin(), data.end());
  std::unordered_map<uint64_t, uint64_t> counts;
  for (size_t i = 0; i < 50000; i++) {
    counts[data[(i * 7919) % data.size()]] += i;
  }
  std::string text(64, 'a');
  uint64_t acc = counts.size();
  for (size_t i = 0; i < 200000; i++) {
    text[i % text.size()] = static_cast<char>(acc);
    acc += HashOf(text) + data[acc & (data.size() - 1)];
  }
  reference_sink = acc;
  return SecondsSince(t0);
}

Rep RunOnce(const Spec& spec, uint64_t seed, bool traced) {
  Rep rep;
  const double ref_before = ReferenceSeconds();
  Usage u0 = ReadUsage();
  Clock::time_point t0 = Clock::now();
  auto world = std::make_unique<World>(seed);
  World* w = world.get();
  if (traced) w->EnableObservability();
  std::unique_ptr<Harness> harness = MakeHarness(spec.name);
  harness->Setup(w, seed, spec.records, &rep.host.load_s);
  rep.host.setup_s = SecondsSince(t0);

  workload::DriverConfig dcfg;
  dcfg.num_clients = spec.clients;
  dcfg.arrival_rate_tps = spec.rate_tps;
  dcfg.warmup = spec.warmup;
  dcfg.measure = spec.measure;
  dcfg.query_fraction = spec.query_fraction;
  const sim::Time window_start = w->sim.Now() + spec.warmup;
  const sim::Time window_end = window_start + spec.measure;

  // Traced runs read the node CPU gauges at the first and the last dispatch
  // inside the window: reading a gauge schedules nothing, so the model is
  // untouched. A gauge counts service time when it is submitted, so the
  // difference is the work offered to the node per virtual second, which
  // is its utilization while its queue is stationary.
  struct BusySample {
    sim::Time at = -1;
    std::map<std::string, double> busy;
  } first, last;
  auto sample_busy = [&] {
    const sim::Time now = w->sim.Now();
    if (now < window_start || now >= window_end) return;
    BusySample* sample = first.at < 0 ? &first : &last;
    sample->at = now;
    sample->busy = CpuBusyGauges(w->metrics);
  };
  Host* host = &rep.host;
  auto timed_txn = [&, harness = harness.get(), host] {
    if (traced) sample_busy();
    Clock::time_point g0 = Clock::now();
    core::TxnRequest req = harness->NextTxn();
    host->gen_s += SecondsSince(g0);
    host->gen_calls++;
    return req;
  };
  workload::Driver::ReadGen timed_read;
  if (harness->has_queries()) {
    timed_read = [harness = harness.get(), host] {
      Clock::time_point g0 = Clock::now();
      core::ReadRequest req = harness->NextRead();
      host->gen_s += SecondsSince(g0);
      host->gen_calls++;
      return req;
    };
  }
  workload::Driver driver(&w->sim, harness->system(), timed_txn, timed_read,
                          dcfg);

  Modeled& m = rep.modeled;
  const uint64_t ev0 = w->sim.executed_events();
  const uint64_t msg0 = w->net.messages_sent();
  const uint64_t bytes0 = w->net.bytes_sent();
  const LayerCounters c0 = harness->Counters();

  Clock::time_point r0 = Clock::now();
  workload::RunMetrics run = driver.Run();
  rep.host.run_s = SecondsSince(r0);
  Usage u1 = ReadUsage();
  rep.host.cpu_s = u1.user_s - u0.user_s;
  rep.host.sys_s = u1.sys_s - u0.sys_s;
  rep.host.minor_faults = u1.minor_faults - u0.minor_faults;
  rep.host.ref_s = 0.5 * (ref_before + ReferenceSeconds());

  m.events = w->sim.executed_events() - ev0;
  m.messages = w->net.messages_sent() - msg0;
  m.bytes = w->net.bytes_sent() - bytes0;
  const LayerCounters c1 = harness->Counters();
  m.layers.mpt_node_bytes = c1.mpt_node_bytes - c0.mpt_node_bytes;
  m.layers.mpt_reuse_hits = c1.mpt_reuse_hits - c0.mpt_reuse_hits;
  m.layers.btree_bytes = c1.btree_bytes;
  m.layers.lock_waits = c1.lock_waits - c0.lock_waits;
  m.layers.two_pc_rounds = c1.two_pc_rounds - c0.two_pc_rounds;
  m.layers.sharded_txns = c1.sharded_txns - c0.sharded_txns;
  m.stages = harness->system()->stats().stages;

  m.abort_rate = run.AbortRate();
  m.aborts_by_reason = run.aborts_by_reason;
  for (size_t i = 0; i < core::kNumPhases; i++) {
    auto phase = static_cast<core::Phase>(i);
    if (run.phase(phase).count() > 0) {
      m.phase_p50_ms[phase] = run.phase(phase).Percentile(50) / 1000;
    }
  }
  const CheckedSystem& checked = *harness->system();
  auto in_window = [&](sim::Time t) {
    return t >= window_start && t < window_end;
  };
  for (const auto& t : checked.txns()) {
    if (t.resolutions != 1 || t.shed || !in_window(t.finish)) continue;
    m.window_txn_us.push_back(t.latency);
    if (t.ok) m.window_committed++;
  }
  for (const auto& q : checked.queries()) {
    if (q.resolutions == 1 && in_window(q.finish)) {
      m.window_query_us.push_back(q.latency);
    }
  }
  m.outcomes = CountOutcomes(checked);
  m.inputs_digest = checked.inputs_digest();

  if (traced) {
    Traced& t = rep.traced;
    // Leader log entries = the highest index a raft.commit span names.
    std::vector<double> commit_ms;
    for (const auto& ev : w->trace.events()) {
      if (ev.kind != obs::TraceSink::Kind::kSpan ||
          std::strcmp(ev.span.name, "raft.commit") != 0) {
        continue;
      }
      t.raft_log_entries =
          std::max(t.raft_log_entries, static_cast<double>(ev.span.id));
      if (ev.span.t1 >= w->trace.window_start() &&
          ev.span.t1 < w->trace.window_end()) {
        commit_ms.push_back((ev.span.t1 - ev.span.t0) / 1000);
      }
    }
    t.raft_commit_p50_ms = Median(commit_ms);
    w->metrics.ForEachCounter([&](const std::string& name,
                                  const obs::Counter& c) {
      if (name == "tidb.txn_retries") {
        t.tidb_retries = static_cast<double>(c.value());
      }
    });
    for (const auto& [node, busy] : last.busy) {
      double util = (busy - first.busy[node]) / (last.at - first.at);
      if (util > t.busiest_cpu_util) {
        t.busiest_cpu_util = util;
        t.busiest_node = node;
      }
    }
  }

  const Outcomes& o = m.outcomes;
  if (o.resolved_twice > 0) {
    rep.failure = "an op resolved more than once";
  } else if (o.unresolved > 0) {
    rep.failure = std::to_string(o.unresolved) + " ops unresolved at drain";
  } else {
    rep.failure = harness->CheckState(w, checked);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Report.

class JsonLine {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string escaped;
    for (char c : v) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    Raw(key, "\"" + escaped + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"" + key + "\": " + v;
  }
  std::string Finish() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::string Sanitize(const std::string& name) {
  std::string out;
  for (char c : name) out += (c == '-' || c == '+') ? '_' : c;
  return out;
}

/// The phases the four workloads stamp; the traced run reports each.
constexpr core::Phase kReportedPhases[] = {
    core::Phase::kConsensus, core::Phase::kRead,     core::Phase::kProposal,
    core::Phase::kOrder,     core::Phase::kExecute,  core::Phase::kParse,
    core::Phase::kPrewrite,  core::Phase::kCommit};

constexpr core::AbortReason kReportedReasons[] = {
    core::AbortReason::kWriteConflict, core::AbortReason::kContention,
    core::AbortReason::kConstraint, core::AbortReason::kUnavailable,
    core::AbortReason::kOther};

/// The modeled end-to-end metrics and work counters of the first `worlds`
/// repetitions, pooled: rates over the summed windows, percentiles over the
/// union of the window samples, counters summed.
void AddModeled(JsonLine* j, const std::vector<Rep>& reps, size_t worlds,
                const Spec& spec) {
  Histogram txn_us, query_us;
  Outcomes o;
  uint64_t committed = 0, events = 0, messages = 0, bytes = 0, digest = 0;
  double mpt_bytes = 0;
  for (size_t i = 0; i < worlds; i++) {
    const Modeled& m = reps[i].modeled;
    for (double v : m.window_txn_us) txn_us.Add(v);
    for (double v : m.window_query_us) query_us.Add(v);
    committed += m.window_committed;
    o.attempted += m.outcomes.attempted;
    o.committed += m.outcomes.committed;
    o.aborted += m.outcomes.aborted;
    o.answered += m.outcomes.answered;
    o.unresolved += m.outcomes.unresolved;
    events += m.events;
    messages += m.messages;
    bytes += m.bytes;
    mpt_bytes += m.layers.mpt_node_bytes;
    digest = Mix(digest, m.inputs_digest);
  }
  const double window_s =
      static_cast<double>(worlds) * spec.measure / sim::kSec;
  j->Num("worlds", static_cast<double>(worlds));
  j->Num("modeled_tps", static_cast<double>(committed) / window_s);
  j->Num("modeled_qps", static_cast<double>(query_us.count()) / window_s);
  j->Num("modeled_p50_ms", txn_us.Percentile(50) / 1000);
  j->Num("modeled_p999_ms", txn_us.Percentile(99.9) / 1000);
  j->Num("modeled_query_p50_ms", query_us.Percentile(50) / 1000);
  j->Num("window_committed", static_cast<double>(committed));
  j->Num("attempted", static_cast<double>(o.attempted));
  j->Num("committed", static_cast<double>(o.committed));
  j->Num("aborted", static_cast<double>(o.aborted));
  j->Num("answered", static_cast<double>(o.answered));
  j->Num("unresolved", static_cast<double>(o.unresolved));
  j->Num("events", static_cast<double>(events));
  j->Num("net_messages", static_cast<double>(messages));
  j->Num("net_bytes", static_cast<double>(bytes));
  j->Num("mpt_node_bytes", mpt_bytes);
  j->Num("inputs_digest", static_cast<double>(digest >> 11));
}

/// Counts and host figures come from the first (cold) untraced repetition,
/// which pays the heap growth a figure binary pays; trace-only figures from
/// the traced one; the tracing overhead compares it with the warm untraced
/// repetition that follows it.
void AddLayers(JsonLine* j, const Spec& spec, const Rep& plain,
               const Rep& traced, const Rep& warm) {
  const Modeled& m = plain.modeled;
  const Host& h = plain.host;
  const Outcomes& o = m.outcomes;
  const double resolved = std::max<double>(
      1, static_cast<double>(o.committed + o.aborted + o.answered));
  j->Num("workload.gen_us_per_op",
         h.gen_calls == 0
             ? 0
             : h.gen_s * 1e6 / static_cast<double>(h.gen_calls));
  j->Num("workload.gen_share", h.gen_s / h.run_s);
  j->Num("sim.events_per_op", static_cast<double>(m.events) / resolved);
  j->Num("sim.events_per_host_s", static_cast<double>(m.events) / h.run_s);
  j->Num("sim.net_msgs_per_op", static_cast<double>(m.messages) / resolved);
  j->Num("sim.net_bytes_per_op", static_cast<double>(m.bytes) / resolved);
  j->Num("systems.load_us_per_record",
         h.load_s * 1e6 / static_cast<double>(spec.records));
  const double writes = static_cast<double>(o.committed_writes);
  j->Num("adt.mpt_node_bytes_per_write",
         writes == 0 ? 0 : m.layers.mpt_node_bytes / writes);
  j->Num("adt.mpt_batch_reuse_hits", m.layers.mpt_reuse_hits);
  j->Num("consensus.raft_log_entries", traced.traced.raft_log_entries);
  j->Num("consensus.raft_commit_p50_ms", traced.traced.raft_commit_p50_ms);
  j->Num("storage.btree_bytes", m.layers.btree_bytes);
  j->Num("runtime.ops_per_batch",
         m.stages.batches_cut == 0
             ? 0
             : static_cast<double>(m.stages.enqueued) /
                   static_cast<double>(m.stages.batches_cut));
  j->Num("runtime.mempool_peak", static_cast<double>(m.stages.mempool_peak));
  j->Num("runtime.inflight_peak", static_cast<double>(m.stages.inflight_peak));
  j->Num("runtime.busiest_node_cpu_util", traced.traced.busiest_cpu_util);
  for (core::Phase p : kReportedPhases) {
    auto it = m.phase_p50_ms.find(p);
    j->Num("phase." + Sanitize(core::PhaseName(p)) + "_p50_ms",
           it == m.phase_p50_ms.end() ? 0 : it->second);
  }
  j->Num("txn.abort_rate", m.abort_rate);
  for (core::AbortReason r : kReportedReasons) {
    auto it = m.aborts_by_reason.find(r);
    j->Num("txn.aborts." + Sanitize(core::AbortReasonName(r)),
           it == m.aborts_by_reason.end() ? 0
                                          : static_cast<double>(it->second));
  }
  j->Num("tidb.txn_retries", traced.traced.tidb_retries);
  j->Num("txn.lock_waits", m.layers.lock_waits);
  j->Num("sharding.two_pc_rounds_per_txn",
         m.layers.sharded_txns == 0
             ? 0
             : m.layers.two_pc_rounds / m.layers.sharded_txns);
  j->Num("host.cpu_s", h.cpu_s);
  j->Num("host.sys_s", h.sys_s);
  j->Num("host.minor_faults", h.minor_faults);
  j->Num("obs.trace_overhead", (traced.host.setup_s + traced.host.run_s) /
                                   (warm.host.setup_s + warm.host.run_s));
  Histogram query_us;
  for (double v : m.window_query_us) query_us.Add(v);
  j->Num("modeled_qps", static_cast<double>(query_us.count()) /
                            (spec.measure / sim::kSec));
  j->Num("modeled_query_p50_ms", query_us.Percentile(50) / 1000);
}

void AddStamp(JsonLine* j) {
  j->Num("hardware_concurrency", std::thread::hardware_concurrency());
  j->Str("sha256_path", crypto::Sha256UsesHardwareAcceleration()
                            ? "sha-ni"
                            : "portable");
#if defined(__clang__)
  j->Str("compiler", std::string("clang ") + __clang_version__);
#else
  j->Str("compiler", std::string("gcc ") + __VERSION__);
#endif
  j->Str("build_type", PERFBENCH_BUILD_TYPE);
  const char* sim_threads = std::getenv("DICHO_SIM_THREADS");
  const char* bench_threads = std::getenv("DICHO_BENCH_THREADS");
  j->Str("DICHO_SIM_THREADS", sim_threads ? sim_threads : "unset");
  j->Str("DICHO_BENCH_THREADS", bench_threads ? bench_threads : "unset");
}

int PrintUsage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
          "[--quick] [--probe-saturation]\n",
          argv0);
  return 2;
}

}  // namespace
}  // namespace dicho::perfbench

int main(int argc, char** argv) {
  using namespace dicho::perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool quick = false;
  bool probe = false;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(next(), nullptr);
    } else if (arg == "--trace") {
      traced = std::string(next()) == "1";
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--probe-saturation") {
      probe = true;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  const Spec* found = FindSpec(workload);
  if (found == nullptr) return PrintUsage(argv[0]);
  Spec spec = *found;
  if (quick) {
    // Self-test length: a quarter of the window, same records.
    spec.warmup /= 4;
    spec.measure /= 4;
  }
  if (probe) {
    // Closed-loop saturation with enough clients that the client count is
    // not the limit: how the open-loop rate of harmony-ycsb-open was chosen.
    spec.clients = 2000;
    spec.rate_tps = 0;
  }

  JsonLine out;
  out.Str("workload", spec.name);
  out.Num("seed", static_cast<double>(seed));
  AddStamp(&out);

  std::vector<Rep> reps;
  std::string failure;
  const size_t worlds = quick || traced ? 1 : spec.worlds;
  if (traced) {
    // Untraced (cold heap), traced, untraced again (warm heap, the fair
    // base for the tracing overhead), all on the run's first world.
    const uint64_t world_seed = WorldSeed(seed, 0);
    reps.push_back(RunOnce(spec, world_seed, false));
    reps.push_back(RunOnce(spec, world_seed, true));
    reps.push_back(RunOnce(spec, world_seed, false));
    if (!(reps[0].modeled == reps[1].modeled) ||
        !(reps[2].modeled == reps[1].modeled)) {
      failure = "traced run changed the modeled results";
    }
  } else {
    // Every world once, then round again while host time remains; a world
    // run again must reproduce its first run exactly.
    Clock::time_point start = Clock::now();
    for (size_t i = 0; i < worlds || SecondsSince(start) < seconds; i++) {
      reps.push_back(RunOnce(spec, WorldSeed(seed, i % worlds), false));
      if (!reps.back().failure.empty()) break;
      if (i >= worlds && !(reps.back().modeled == reps[i % worlds].modeled)) {
        failure = "world " + std::to_string(i % worlds) +
                  " changed its modeled results when run again";
        break;
      }
    }
  }
  for (const Rep& r : reps) {
    if (failure.empty() && !r.failure.empty()) failure = r.failure;
  }
  uint64_t window_committed = 0;
  for (size_t i = 0; i < worlds && i < reps.size(); i++) {
    window_committed += reps[i].modeled.window_committed;
  }
  if (failure.empty() && !quick && !probe && !traced &&
      window_committed < 10000) {
    failure = "the windows hold fewer than 10000 committed txns";
  }

  // Setup is the median over repetitions; the op rate pools every
  // repetition (total ops over total driven time). Both in reference
  // seconds, with the raw host figures beside them.
  std::vector<double> setup, setup_raw, ref;
  double resolved = 0, run_ref_s = 0, run_s = 0;
  for (const Rep& r : reps) {
    const Outcomes& o = r.modeled.outcomes;
    const double scale = kReferenceS / r.host.ref_s;
    setup.push_back(r.host.setup_s * scale);
    setup_raw.push_back(r.host.setup_s);
    ref.push_back(r.host.ref_s);
    resolved += static_cast<double>(o.committed + o.aborted + o.answered);
    run_ref_s += r.host.run_s * scale;
    run_s += r.host.run_s;
  }
  out.Num("reps", static_cast<double>(reps.size()));
  out.Str("failure", failure);
  out.Raw("correct", failure.empty() ? "true" : "false");
  AddModeled(&out, reps, std::min(worlds, reps.size()), spec);
  out.Num("setup_s", Median(setup));
  out.Num("host_ops_per_s", resolved / run_ref_s);
  out.Num("setup_s_raw", Median(setup_raw));
  out.Num("host_ops_per_s_raw", resolved / run_s);
  out.Num("reference_ms", Median(ref) * 1000);
  out.Num("peak_rss_mb", ReadUsage().max_rss_mb);
  if (traced) {
    JsonLine layers;
    AddLayers(&layers, spec, reps[0], reps[1], reps[2]);
    out.Raw("per_layer", layers.Finish());
    out.Str("busiest_node", reps[1].traced.busiest_node);
  }
  printf("%s\n", out.Finish().c_str());
  return 0;
}
