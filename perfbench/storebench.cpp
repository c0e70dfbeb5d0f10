// storebench — byte-verified benchmark driver for ShardedObjectStore.
//
// One process runs one named workload against a TRAP-ERC (15, 8, 1) store
// with 4 KiB chunks (32 KiB stripes), 4 shards and a one-worker store pool.
// Load comes from exactly one driver thread (this one) through the public
// StoreClient async surface: submit_* plus an on_complete callback that only
// timestamps the result and hands it back to the driver thread, which polls
// for it without sleeping. Every read
// whose object had no write in flight is compared byte-for-byte with the
// driver's shadow copy; a mismatch aborts the run without a result line.
//
//   storebench --workload <write_churn|degraded_read> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <file>]
//              [--record-out <file>] [--corrupt-shadow]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (counters read from public accessors after the run, plus a ladder of
// direct calls into each layer at the same geometry). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --corrupt-shadow flips one byte of every live object's shadow after set-up;
// the run must then fail (exit 3), which shows the byte check is live.
// See README.md beside this file for the metric glossary.
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <dirent.h>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol/cluster.hpp"
#include "core/protocol/sharded_store.hpp"
#include "gf/gf256.hpp"
#include "gf/kernels/kernels.hpp"
#include "gf/region.hpp"
#include "workload/key_chooser.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using traperc::BlockId;
using traperc::NodeId;
using traperc::Rng;
using traperc::core::BatchResult;
using traperc::core::ErrorCode;
using traperc::core::ProtocolConfig;
using traperc::core::ReadOptions;
using traperc::core::ShardedObjectStore;
using traperc::core::ShardedStoreOptions;
using traperc::core::SimCluster;
using traperc::workload::KeyChooser;
using traperc::workload::KeyDist;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Frozen run shape (identical for every workload; README.md "Run shape").
// ---------------------------------------------------------------------------
constexpr unsigned kN = 15;
constexpr unsigned kK = 8;
constexpr unsigned kW = 1;
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kStripeBytes = kK * kChunk;
constexpr unsigned kShards = 4;
/// One store worker: the pool's workers serialize on the shard mutexes, so
/// three of them sat idle half the time and throughput followed how fast
/// the VM woke them (README.md "One store worker, a polling driver").
constexpr unsigned kStoreThreads = 1;
/// One driver thread plus the store pool: the whole thread budget.
constexpr unsigned kThreadBudget = 1 + kStoreThreads;
/// Set-up repetitions per run; setup_s is the median of their CPU times.
constexpr int kSetupReps = 15;
/// Value header: driver key, write sequence, checksum of the body.
constexpr std::size_t kHeader = 24;
/// Quorum-starving kill set for (15, 8, 1): every read quorum dies, 9 >= k
/// survivors keep every block reconstructible.
constexpr NodeId kKillSet[] = {0, 8, 9, 10, 11, 12};
/// Untimed warm-up before the timed phase.
constexpr std::int64_t kWarmupNs = 1'000'000'000;
/// Alternating untraced/traced slices of the timed phase in a traced run.
constexpr int kTraceSlices = 10;

enum class Kind : std::uint8_t { kGet, kPut, kOverwrite, kRange, kForget };
constexpr int kKinds = 5;
constexpr const char* kKindName[kKinds] = {"get", "put", "overwrite",
                                           "range_write", "forget"};

struct Params {
  const char* name;
  /// Closed-loop clients multiplexed on the driver thread.
  unsigned clients;
  unsigned async_window;
  unsigned objects;  ///< preloaded (and, with churn, steady) live population
  std::size_t min_size;
  std::size_t max_size;
  /// Client op mix in percent: get, overwrite; the rest are range writes.
  unsigned mix_get, mix_overwrite;
  /// Paced put+forget churn: puts per second, each followed by one forget
  /// half an interval later (0 = no churn).
  double churn_puts_s;
  std::size_t max_range;  ///< largest overwrite_range payload
  KeyDist dist;
  /// Kill kKillSet after preload; reads then set allow_degraded.
  bool kill;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Params kWorkloads[] = {
    {"write_churn", 8, 12, 256, 3 * kStripeBytes + 1, 4 * kStripeBytes,
     30, 30, 64.0, 512, KeyDist::kLatest, false},
    // Every degraded_read object fills 15-16 of its 16 data blocks, so the
    // decode work per read does not depend on which keys a seed makes hot.
    {"degraded_read", 8, 8, 512, 2 * kStripeBytes - kChunk + 1,
     2 * kStripeBytes, 100, 0, 0.0, 0, KeyDist::kZipfian, true},
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------
std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

[[noreturn]] void die(int code, const std::string& message) {
  std::fprintf(stderr, "storebench: %s\n", message.c_str());
  std::exit(code);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index =
      std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

/// One latency sample, keyed by its op's scheduled send time.
struct Sample {
  std::int64_t sched_ns;
  double us;
};

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t checksum(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ len;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
  }
  for (; i < len; ++i) h = (h ^ data[i]) * 0x100000001b3ULL;
  return h;
}

/// Self-describing value: [key][seq][checksum(body)] then a body derived
/// from (key, seq).
std::vector<std::uint8_t> make_value(std::uint64_t key, std::uint64_t seq,
                                     std::size_t size) {
  std::vector<std::uint8_t> value(size);
  Rng rng(key * 0x2545f4914f6cdd1dULL ^ (seq + 1) * 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = kHeader; i < size; i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(value.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
  const std::uint64_t sum = checksum(value.data() + kHeader, size - kHeader);
  std::memcpy(value.data(), &key, 8);
  std::memcpy(value.data() + 8, &seq, 8);
  std::memcpy(value.data() + 16, &sum, 8);
  return value;
}

std::uint64_t header_key(const std::vector<std::uint8_t>& value) {
  std::uint64_t key = 0;
  if (value.size() >= 8) std::memcpy(&key, value.data(), 8);
  return key;
}

unsigned thread_count() {
  unsigned count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

/// CPU time of every thread of this process so far, exited threads included.
/// The kernel leaves out time the host stole from the guest.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// VmHWM: the peak resident set since the last /proc/self/clear_refs reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  die(2, "no VmHWM in /proc/self/status");
}

/// Host health at one instant: cumulative steal ticks and the 1-minute
/// load average.
struct HostSample {
  std::uint64_t steal_ticks = 0;
  double loadavg1 = 0.0;
};

HostSample sample_host() {
  HostSample sample;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (auto& f : field) stat >> f;
    sample.steal_ticks = field[7];
  }
  std::ifstream load("/proc/loadavg");
  load >> sample.loadavg1;
  return sample;
}

/// From /proc/self/task/*/schedstat: nanoseconds on a CPU summed over the
/// store workers (every thread but the driver), and nanoseconds runnable but
/// waiting for a CPU summed over every thread. On a shared VM the wait
/// includes CPU the host withheld, which the steal column of /proc/stat
/// under-reports; the run time excludes it.
struct SchedSample {
  std::int64_t at_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;
};

SchedSample sample_sched() {
  SchedSample sample;
  sample.at_ns = now_ns();
  const std::string self = std::to_string(getpid());
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                         "/schedstat");
      std::uint64_t run = 0, wait = 0;
      if (stat >> run >> wait) {
        if (self != entry->d_name) sample.run_ns += run;
        sample.wait_ns += wait;
      }
    }
    closedir(dir);
  }
  return sample;
}

/// Busy-wait hint: the driver polls for completions instead of sleeping, so
/// no completion waits for the VM to wake a halted vCPU.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at exit (traced runs only).
// ---------------------------------------------------------------------------
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one span; returns its id (0 when tracing is off).
  std::uint64_t record(const std::string& name, std::uint64_t op,
                       std::uint64_t parent, std::int64_t start,
                       std::int64_t end) {
    if (!enabled_) return 0;
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) {
      it = name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()))
               .first;
      names_.push_back(name);
    }
    spans_.push_back(Span{it->second, op, parent, start, end});
    return spans_.size();
  }

  /// Sets the end of span `id` (a parent opened before its children).
  void finish(std::uint64_t id, std::int64_t end) {
    if (enabled_ && id > 0) spans_[id - 1].end = end;
  }

  /// Chrome trace-event JSON: one complete event per span, with the span
  /// id, parent id and op id in args.
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << names_[s.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << json_number(static_cast<double>(s.start) / 1e3)
          << ",\"dur\":"
          << json_number(static_cast<double>(s.end - s.start) / 1e3)
          << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::uint32_t name;
    std::uint64_t op;
    std::uint64_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
};

// ---------------------------------------------------------------------------
// Layer counters read from public accessors at quiescent points.
// ---------------------------------------------------------------------------
struct Counters {
  std::uint64_t events = 0, messages = 0, bytes = 0, down_requests = 0;
  std::uint64_t stripe_writes = 0, stripe_reads = 0;
  std::uint64_t blocks_written = 0, blocks_read = 0;
  std::uint64_t pool_acquires = 0, pool_refills = 0;
  std::uint64_t degraded_stripes = 0, degraded_blocks = 0;
  std::uint64_t lease_grants = 0, lease_conflicts = 0;
  std::vector<std::uint64_t> shard_stripe_ops;
};

void add_cluster(Counters& c, SimCluster& cluster) {
  c.events += cluster.engine().processed();
  const auto& net = cluster.network().stats();
  c.messages += net.messages_sent;
  c.bytes += net.bytes_sent;
  c.down_requests += net.requests_to_down_node;
  const auto sync = cluster.stripe_sync_stats();
  c.stripe_writes += sync.stripe_writes;
  c.stripe_reads += sync.stripe_reads;
  c.blocks_written += sync.blocks_written;
  c.blocks_read += sync.blocks_read;
  const auto pool = cluster.buffer_pool().stats();
  c.pool_acquires += pool.acquires;
  c.pool_refills += pool.heap_refills;
  c.shard_stripe_ops.push_back(sync.stripe_writes + sync.stripe_reads);
}

Counters read_counters(ShardedObjectStore& store) {
  Counters c;
  for (unsigned s = 0; s < store.shard_count(); ++s) {
    add_cluster(c, store.shard_cluster(s));
  }
  const auto stats = store.stats();
  c.degraded_stripes = stats.degraded.stripe_reads;
  c.degraded_blocks = stats.degraded.blocks_decoded;
  c.lease_grants = stats.object_leases.grants;
  c.lease_conflicts = stats.object_leases.conflicts;
  return c;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------
struct Object {
  std::uint64_t key = 0;       ///< driver key, embedded in the value header
  std::uint64_t store_id = 0;  ///< assigned when the put completes
  std::uint64_t seq = 0;       ///< sequence of the last full write
  std::size_t size = 0;
  std::vector<std::uint8_t> shadow;  ///< bytes of the last completed write
  unsigned reads_in_flight = 0;
  unsigned writes_in_flight = 0;
  std::uint64_t write_epoch = 0;  ///< bumped at every write submit
  bool failed = false;  ///< a write failed: contents no longer known
};

struct Completion {
  std::uint64_t ticket = 0;
  ErrorCode code = ErrorCode::kOk;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> bytes;
  std::int64_t done_ns = 0;
};

struct Pending {
  Kind kind = Kind::kGet;
  std::uint32_t slot = 0;
  int client = -1;  ///< closed-loop client, -1 for scheduled ops
  std::int64_t sched_ns = 0;
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::uint64_t epoch = 0;
  bool checkable = false;  ///< get submitted with no write in flight
  std::vector<std::uint8_t> bytes;  ///< write payload kept for the shadow
  std::size_t offset = 0;
  std::uint64_t seq = 0;
  bool audit = false;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_shadow = false;
  std::string trace_out;
  std::string record_out;
};

class Bench {
 public:
  Bench(const Params& params, const Args& args)
      : p_(params), args_(args), tracer_(args.trace), rng_(args.seed) {}

  int run();

 private:
  // -- set-up ---------------------------------------------------------------
  std::unique_ptr<ShardedObjectStore> make_store();
  void preload();

  // -- async plumbing -------------------------------------------------------
  void submit(Kind kind, std::uint32_t slot, int client, std::int64_t sched);
  /// Polls until a completion is queued or `deadline_ns` passes, then
  /// processes every queued completion.
  void drain(std::int64_t deadline_ns);
  void process(Completion done);
  void quiesce();

  // -- op choice -------------------------------------------------------------
  void send_client_op(int client, std::int64_t sched);
  void send_churn_op(bool put, std::int64_t sched);
  std::uint32_t new_object(std::size_t size);

  // -- phases ----------------------------------------------------------------
  void run_timed();
  void audit();
  void ladder();
  void storage_reads(std::uint64_t parent);

  [[nodiscard]] bool timed(std::int64_t sched) const {
    return sched >= t0_ && sched < t_end_;
  }
  [[nodiscard]] bool traced_slice(std::int64_t sched) const {
    if (!tracer_.enabled() || !timed(sched)) return false;
    const std::int64_t slice = (t_end_ - t0_) / kTraceSlices;
    return ((sched - t0_) / std::max<std::int64_t>(1, slice)) % 2 == 1;
  }

  void emit(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void report(bool correct, const HostSample& before, const HostSample& after);

  const Params& p_;
  Args args_;
  Tracer tracer_;
  Rng rng_;

  std::unique_ptr<ShardedObjectStore> store_;
  std::mutex mutex_;  ///< guards completions_
  std::deque<Completion> completions_;
  std::atomic<std::size_t> queued_{0};  ///< completions_.size(), lock-free

  std::vector<Object> objects_;
  std::deque<std::uint32_t> live_;  ///< oldest → newest
  std::vector<std::vector<std::uint8_t>> preload_values_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<std::unique_ptr<KeyChooser>> choosers_;
  std::vector<Rng> client_rngs_;
  std::uint64_t next_key_ = 1;
  std::uint64_t op_seq_ = 0;

  std::int64_t t0_ = 0, t_end_ = 0;
  /// Run-queue wait share of every thread, and store worker CPU, over the
  /// run (warm-up and timed phase).
  double run_wait_share_ = 0;
  double store_cpu_ns_ = 0;

  // Outcomes.
  std::vector<Sample> latency_us_[kKinds];
  std::vector<Sample> all_latency_us_;
  std::vector<double> late_us_, submit_wait_us_;
  std::vector<double> queue_depth_samples_;
  std::uint64_t attempted_ = 0, failed_ = 0, conflicts_ = 0;
  std::uint64_t ops_since_snapshot_ = 0;
  std::uint64_t get_stripes_since_snapshot_ = 0;
  std::uint64_t gets_ok_ = 0, gets_verified_ = 0;
  bool auditing_ = false;  ///< gets submitted now are read-back audit reads
  std::uint64_t audit_checked_ = 0, audit_failed_ = 0;
  std::uint64_t deferred_writes_ = 0;
  std::int64_t last_depth_sample_ = 0;
  /// Process CPU seconds and wall seconds of each set-up repetition.
  std::vector<double> setup_cpu_s_, setup_wall_s_;
  double stored_per_live_ = 0.0, stored_per_live_setup_ = 0.0;
  Counters before_, after_;
  std::uint64_t ops_between_ = 0;
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::string first_error_;
};

std::unique_ptr<ShardedObjectStore> Bench::make_store() {
  ShardedStoreOptions options;
  options.shards = kShards;
  options.threads = kStoreThreads;
  options.async_window = p_.async_window;
  options.seed = args_.seed;
  auto store = std::make_unique<ShardedObjectStore>(
      ProtocolConfig::for_code(kN, kK, kW), options);
  store->on_complete([this](const BatchResult& result) {
    Completion done;
    done.done_ns = now_ns();
    done.ticket = result.ticket.id;
    done.code = result.status.code();
    done.id = result.id;
    done.bytes = result.bytes;
    {
      std::lock_guard lock(mutex_);
      completions_.push_back(std::move(done));
    }
    queued_.fetch_add(1, std::memory_order_release);
  });
  return store;
}

std::uint32_t Bench::new_object(std::size_t size) {
  Object object;
  object.key = next_key_++;
  object.size = size;
  objects_.push_back(std::move(object));
  return static_cast<std::uint32_t>(objects_.size() - 1);
}

void Bench::preload() {
  // Values are generated before the clock starts: set-up time is the
  // store's construction, preload puts and kills only.
  for (unsigned i = 0; i < p_.objects; ++i) {
    const std::size_t size =
        p_.min_size + rng_.next_below(p_.max_size - p_.min_size + 1);
    const std::uint32_t slot = new_object(size);
    preload_values_.push_back(make_value(objects_[slot].key, 0, size));
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store_.reset();
    const double cpu_start = process_cpu_s();
    const std::int64_t start = now_ns();
    store_ = make_store();
    for (std::uint32_t slot = 0; slot < p_.objects; ++slot) {
      objects_[slot].shadow = preload_values_[slot];
      submit(Kind::kPut, slot, -1, now_ns());
    }
    quiesce();
    if (p_.kill) {
      for (NodeId node : kKillSet) store_->fail_node(node);
    }
    const std::int64_t end = now_ns();
    setup_cpu_s_.push_back(process_cpu_s() - cpu_start);
    setup_wall_s_.push_back(static_cast<double>(end - start) / 1e9);
    if (failed_ != 0) die(4, "preload failed: " + first_error_);
    if (rep + 1 < kSetupReps) {
      live_.clear();
      for (auto& object : objects_) object.store_id = 0;
    }
  }
  preload_values_.clear();
  preload_values_.shrink_to_fit();
  // Earlier repetitions' freed memory goes back to the OS, and the peak
  // RSS restarts from the live store, so peak_rss_mb is not inflated by
  // set-up repetitions.
  malloc_trim(0);
  if (!(std::ofstream("/proc/self/clear_refs") << "5")) {
    die(2, "cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

void Bench::submit(Kind kind, std::uint32_t slot, int client,
                   std::int64_t sched) {
  Object& object = objects_[slot];
  Pending op;
  op.kind = kind;
  op.slot = slot;
  op.client = client;
  op.sched_ns = sched;
  op.audit = auditing_;
  const bool is_write = kind != Kind::kGet && kind != Kind::kForget;
  std::vector<std::uint8_t> payload;
  switch (kind) {
    case Kind::kGet:
      op.epoch = object.write_epoch;
      op.checkable = object.writes_in_flight == 0 && !object.failed;
      ++object.reads_in_flight;
      break;
    case Kind::kPut:
      op.bytes = object.shadow.empty()
                     ? make_value(object.key, 0, object.size)
                     : object.shadow;
      payload = op.bytes;
      break;
    case Kind::kOverwrite:
      op.seq = object.seq + 1;
      op.bytes = make_value(object.key, op.seq, object.size);
      payload = op.bytes;
      break;
    case Kind::kRange: {
      // Ranges stay clear of the header so the object's identity bytes
      // always survive; the byte check covers the whole value.
      const std::size_t len = 1 + rng_.next_below(p_.max_range);
      op.offset = kHeader + rng_.next_below(object.size - kHeader - len + 1);
      op.bytes.resize(len);
      for (auto& byte : op.bytes) {
        byte = static_cast<std::uint8_t>(rng_.next_u64());
      }
      payload = op.bytes;
      break;
    }
    case Kind::kForget:
      break;
  }
  if (is_write) {
    ++object.writes_in_flight;
    ++object.write_epoch;
  }
  op.submit_begin_ns = now_ns();
  traperc::core::OpTicket ticket;
  switch (kind) {
    case Kind::kGet: {
      ReadOptions options;
      options.allow_degraded = p_.kill;
      ticket = store_->submit_get(object.store_id, options);
      break;
    }
    case Kind::kPut:
      ticket = store_->submit_put(std::move(payload));
      break;
    case Kind::kOverwrite:
      ticket = store_->submit_overwrite(object.store_id, std::move(payload));
      break;
    case Kind::kRange:
      ticket = store_->submit_overwrite_range(object.store_id, op.offset,
                                              std::move(payload));
      break;
    case Kind::kForget:
      ticket = store_->submit_forget(object.store_id);
      break;
  }
  op.submit_end_ns = now_ns();
  if (timed(sched)) {
    ++attempted_;
    late_us_.push_back(static_cast<double>(op.submit_begin_ns - sched) / 1e3);
    submit_wait_us_.push_back(
        static_cast<double>(op.submit_end_ns - op.submit_begin_ns) / 1e3);
    if (tracer_.enabled() &&
        op.submit_begin_ns - last_depth_sample_ >= 10'000'000) {
      last_depth_sample_ = op.submit_begin_ns;
      double depth = 0;
      for (std::size_t d : store_->stats().shard_queue_depth) depth += d;
      queue_depth_samples_.push_back(depth);
    }
  }
  pending_.emplace(ticket.id, std::move(op));
}

void Bench::drain(std::int64_t deadline_ns) {
  while (queued_.load(std::memory_order_acquire) == 0) {
    if (now_ns() >= deadline_ns) return;
    for (int i = 0; i < 32; ++i) cpu_relax();
  }
  while (queued_.load(std::memory_order_acquire) != 0) {
    Completion done;
    {
      std::lock_guard lock(mutex_);
      done = std::move(completions_.front());
      completions_.pop_front();
    }
    queued_.fetch_sub(1, std::memory_order_release);
    process(std::move(done));
  }
}

void Bench::quiesce() {
  while (!pending_.empty()) drain(now_ns() + 1'000'000'000);
}

void Bench::process(Completion done) {
  auto it = pending_.find(done.ticket);
  if (it == pending_.end()) die(5, "completion for an unknown ticket");
  Pending op = std::move(it->second);
  pending_.erase(it);
  Object& object = objects_[op.slot];
  const bool ok = done.code == ErrorCode::kOk;
  const bool in_window = timed(op.sched_ns);
  ++ops_since_snapshot_;

  if (!ok) {
    if (done.code == ErrorCode::kLeaseConflict) {
      ++conflicts_;
    } else {
      ++failed_;
      if (first_error_.empty()) {
        first_error_ = std::string(kKindName[static_cast<int>(op.kind)]) +
                       ": " + traperc::core::to_string(done.code);
      }
    }
  }

  switch (op.kind) {
    case Kind::kGet: {
      --object.reads_in_flight;
      if (!ok) break;
      ++gets_ok_;
      get_stripes_since_snapshot_ +=
          (object.size + kStripeBytes - 1) / kStripeBytes;
      if (op.checkable && object.write_epoch == op.epoch && !object.failed) {
        ++gets_verified_;
        if (done.bytes != object.shadow ||
            header_key(done.bytes) != object.key) {
          die(3, "byte verification FAILED: object key " +
                     std::to_string(object.key) + " (store id " +
                     std::to_string(object.store_id) + ", " +
                     std::to_string(done.bytes.size()) + " bytes read, " +
                     std::to_string(object.shadow.size()) + " expected)");
        }
        if (op.audit) ++audit_checked_;
      } else if (op.audit) {
        ++audit_failed_;
      }
      break;
    }
    case Kind::kPut:
      --object.writes_in_flight;
      if (ok) {
        object.store_id = done.id;
        object.shadow = std::move(op.bytes);
        live_.push_back(op.slot);
      }
      break;
    case Kind::kOverwrite:
    case Kind::kRange:
      --object.writes_in_flight;
      if (ok) {
        if (op.kind == Kind::kOverwrite) {
          object.shadow = std::move(op.bytes);
          object.seq = op.seq;
        } else {
          std::memcpy(object.shadow.data() + op.offset, op.bytes.data(),
                      op.bytes.size());
        }
      } else if (done.code != ErrorCode::kLeaseConflict) {
        object.failed = true;
      }
      break;
    case Kind::kForget:
      if (ok) {
        object.shadow.clear();
        object.shadow.shrink_to_fit();
      }
      break;
  }
  if (op.audit && !ok) ++audit_failed_;

  if (in_window) {
    const double latency =
        static_cast<double>(done.done_ns - op.sched_ns) / 1e3;
    if (ok) {
      latency_us_[static_cast<int>(op.kind)].push_back({op.sched_ns, latency});
      all_latency_us_.push_back({op.sched_ns, latency});
    }
    if (traced_slice(op.sched_ns)) {
      const std::uint64_t id = ++op_seq_;
      const std::uint64_t span = tracer_.record(
          std::string("op.") + kKindName[static_cast<int>(op.kind)], id, 0,
          op.sched_ns, done.done_ns);
      tracer_.record("client.submit", id, span, op.submit_begin_ns,
                     op.submit_end_ns);
    }
  }
  if (op.client >= 0 && now_ns() < t_end_) send_client_op(op.client, now_ns());
}

void Bench::send_client_op(int client, std::int64_t sched) {
  Rng& rng = client_rngs_[client];
  const unsigned roll = static_cast<unsigned>(rng.next_below(100));
  Kind kind = Kind::kGet;
  if (roll >= p_.mix_get) {
    kind = roll < p_.mix_get + p_.mix_overwrite ? Kind::kOverwrite
                                                : Kind::kRange;
  }
  // Writers to one object are serialized by the driver (a second writer
  // would race the first for the object lease): a write drawn for an object
  // with a write in flight redraws its key, bounded, then falls back to a
  // read of that object.
  std::uint32_t slot = 0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    slot = live_[choosers_[client]->next(rng, live_.size())];
    if (kind == Kind::kGet || objects_[slot].writes_in_flight == 0) break;
  }
  if (kind != Kind::kGet && objects_[slot].writes_in_flight != 0) {
    ++deferred_writes_;
    kind = Kind::kGet;
  }
  submit(kind, slot, client, sched);
}

void Bench::send_churn_op(bool put, std::int64_t sched) {
  if (put) {
    const std::size_t size =
        p_.min_size + rng_.next_below(p_.max_size - p_.min_size + 1);
    submit(Kind::kPut, new_object(size), -1, sched);
    return;
  }
  // Forget the oldest object with nothing in flight (a get racing a forget
  // would fail with kUnknownObject).
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    const Object& object = objects_[*it];
    if (object.reads_in_flight == 0 && object.writes_in_flight == 0) {
      const std::uint32_t slot = *it;
      live_.erase(it);
      submit(Kind::kForget, slot, -1, sched);
      return;
    }
  }
}

void Bench::run_timed() {
  for (unsigned c = 0; c < std::max(1u, p_.clients); ++c) {
    choosers_.push_back(traperc::workload::make_key_chooser(
        p_.dist, traperc::workload::ZipfianGenerator::kDefaultTheta));
    client_rngs_.push_back(rng_.split(100 + c));
  }
  const std::int64_t start = now_ns();
  t0_ = start + kWarmupNs;
  t_end_ = t0_ + static_cast<std::int64_t>(args_.seconds * 1e9);

  // Scheduled stream: the paced churn of alternating puts and forgets, each
  // op timed from its scheduled send.
  const bool scheduled = p_.churn_puts_s > 0;
  std::int64_t next_sched = start;
  bool next_is_put = true;

  for (unsigned c = 0; c < p_.clients; ++c) {
    send_client_op(static_cast<int>(c), now_ns());
  }

  while (true) {
    const std::int64_t now = now_ns();
    if (scheduled && next_sched < t_end_ && next_sched <= now) {
      send_churn_op(next_is_put, next_sched);
      next_sched += static_cast<std::int64_t>(0.5e9 / p_.churn_puts_s);
      next_is_put = !next_is_put;
      continue;
    }
    if (now >= t_end_ && pending_.empty()) break;
    std::int64_t wake = now + 100'000'000;
    if (scheduled && next_sched < t_end_) wake = std::min(wake, next_sched);
    if (now < t_end_) wake = std::min(wake, t_end_);
    drain(wake);
  }
}

void Bench::audit() {
  // Quiesced read-back of every live object, byte-checked.
  auditing_ = true;
  for (std::uint32_t slot : live_) submit(Kind::kGet, slot, -1, now_ns());
  quiesce();
  auditing_ = false;
}

// ---------------------------------------------------------------------------
// Ladder: direct calls into each layer's public functions at the same
// geometry, each rung timed as the median of batch means, with engine
// events, network messages and bytes counted per call.
// ---------------------------------------------------------------------------
struct Rung {
  double us = 0, events = 0, messages = 0, bytes = 0;
};

template <typename Fn>
Rung measure(Tracer& tracer, std::uint64_t parent, const std::string& name,
             const std::vector<SimCluster*>& clusters, int batches,
             int per_batch, Fn&& call) {
  auto totals = [&] {
    Counters c;
    for (SimCluster* cluster : clusters) add_cluster(c, *cluster);
    return c;
  };
  call();  // warm caches and lazy set-up
  const Counters before = totals();
  std::vector<double> batch_us;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < per_batch; ++i) call();
    const std::int64_t end = now_ns();
    tracer.record("ladder." + name, 0, parent, start, end);
    batch_us.push_back(static_cast<double>(end - start) / 1e3 / per_batch);
  }
  const Counters after = totals();
  const double calls = static_cast<double>(batches) * per_batch;
  Rung rung;
  rung.us = median(batch_us);
  rung.events = static_cast<double>(after.events - before.events) / calls;
  rung.messages = static_cast<double>(after.messages - before.messages) / calls;
  rung.bytes = static_cast<double>(after.bytes - before.bytes) / calls;
  return rung;
}

void expect(bool ok, const char* what) {
  if (!ok) die(5, std::string("ladder: ") + what);
}

void Bench::ladder() {
  const std::int64_t ladder_start = now_ns();
  const std::uint64_t root =
      tracer_.record("ladder", 0, 0, ladder_start, ladder_start);
  storage_reads(root);
  const ProtocolConfig config = ProtocolConfig::for_code(kN, kK, kW);
  Rng rng(args_.seed ^ 0x6c6164646572ULL);
  auto random_chunk = [&] {
    std::vector<std::uint8_t> chunk(kChunk);
    for (auto& byte : chunk) byte = static_cast<std::uint8_t>(rng.next_u64());
    return chunk;
  };
  auto rung = [&](const char* name, const std::vector<SimCluster*>& clusters,
                  int per_batch, auto&& call) {
    return measure(tracer_, root, name, clusters, 31, per_batch, call);
  };
  auto emit_rung = [&](const std::string& name, const Rung& r) {
    emit(name + "_us", r.us, "us");
    emit(name + "_events", r.events, "count");
    emit(name + "_messages", r.messages, "count");
    emit(name + "_bytes", r.bytes, "B");
  };

  // GF region kernel.
  {
    const auto src = random_chunk();
    auto dst = random_chunk();
    const auto& field = traperc::gf::GF256::instance();
    const Rung gf = rung("gf.mul_add_region", {}, 4000, [&] {
      traperc::gf::mul_add_region(field, 0x53, src.data(), dst.data(), kChunk);
    });
    emit("gf.mul_add_region_mb_s", static_cast<double>(kChunk) / gf.us, "MB/s");
  }

  SimCluster cluster(config, args_.seed);
  const std::vector<SimCluster*> one{&cluster};
  const auto* code = cluster.code();

  // Erasure code.
  {
    std::vector<std::vector<std::uint8_t>> data(kK), parity(kN - kK);
    for (auto& d : data) d = random_chunk();
    for (auto& q : parity) q.assign(kChunk, 0);
    std::vector<const std::uint8_t*> dptr;
    std::vector<std::uint8_t*> pptr;
    for (auto& d : data) dptr.push_back(d.data());
    for (auto& q : parity) pptr.push_back(q.data());
    const Rung encode = rung("erasure.encode", {}, 100,
                             [&] { code->encode(dptr, pptr, kChunk); });
    emit("erasure.encode_us", encode.us, "us");
    // Reconstruct block 0 from the survivors of the degraded_read kill set.
    std::vector<unsigned> present_ids;
    std::vector<const std::uint8_t*> present;
    for (unsigned b = 0; b < kN; ++b) {
      if (std::count(std::begin(kKillSet), std::end(kKillSet), b)) continue;
      present_ids.push_back(b);
      present.push_back(b < kK ? data[b].data() : parity[b - kK].data());
    }
    std::vector<std::uint8_t> out(kChunk);
    const unsigned want[] = {0};
    std::uint8_t* outs[] = {out.data()};
    const Rung reconstruct = rung("erasure.reconstruct", {}, 300, [&] {
      code->reconstruct(present_ids, present, want, outs, kChunk);
    });
    emit("erasure.reconstruct_us", reconstruct.us, "us");
    expect(out == data[0], "reconstruct returned wrong bytes");
    const auto delta = random_chunk();
    const Rung apply_delta = rung("erasure.apply_delta", {}, 4000, [&] {
      code->apply_delta(0, 0, delta, parity[0]);
    });
    emit("erasure.apply_delta_us", apply_delta.us, "us");
  }

  // Coordinator block ops (Alg. 1 / Alg. 2) and SimCluster stripe ops.
  constexpr BlockId kStripes = 64;
  for (BlockId s = 0; s < kStripes; ++s) {
    std::vector<std::vector<std::uint8_t>> blocks;
    for (unsigned b = 0; b < kK; ++b) blocks.push_back(random_chunk());
    expect(cluster.write_stripe_sync(s, 0, std::move(blocks)).ok(),
           "stripe preload failed");
  }
  BlockId cursor = 0;
  auto next_stripe = [&] { return cursor++ % kStripes; };
  const auto chunk = random_chunk();
  auto pooled_chunk = [&] {
    auto value = cluster.buffer_pool().acquire();
    std::memcpy(value.data(), chunk.data(), kChunk);
    return value;
  };
  const Rung write_block = rung("coordinator.write_block", one, 40, [&] {
    expect(cluster.write_block_sync(next_stripe(), 1, pooled_chunk()).ok(),
           "write_block failed");
  });
  const Rung read_block = rung("coordinator.read_block", one, 200, [&] {
    auto read = cluster.read_block_sync(next_stripe(), 1);
    expect(read.ok(), "read_block failed");
    cluster.buffer_pool().release(std::move(read->value));
  });
  cluster.fail_node(1);
  const Rung read_decode = rung("coordinator.read_block_decode", one, 30, [&] {
    auto read = cluster.read_block_sync(next_stripe(), 1);
    expect(read.ok() && read->decoded, "case-2 read was not decoded");
  });
  cluster.recover_node(1);
  emit_rung("coordinator.write_block", write_block);
  emit_rung("coordinator.read_block", read_block);
  emit_rung("coordinator.read_block_decode", read_decode);

  const Rung write_stripe = rung("cluster.write_stripe", one, 8, [&] {
    std::vector<std::vector<std::uint8_t>> blocks;
    for (unsigned b = 0; b < kK; ++b) blocks.push_back(pooled_chunk());
    expect(cluster.write_stripe_sync(next_stripe(), 0, std::move(blocks)).ok(),
           "write_stripe failed");
  });
  const Rung read_stripe = rung("cluster.read_stripe", one, 20, [&] {
    auto read = cluster.read_stripe_sync(next_stripe(), 0, kK);
    expect(read.ok(), "read_stripe failed");
    for (auto& block : *read) {
      cluster.buffer_pool().release(std::move(block.value));
    }
  });
  const std::vector<std::uint8_t> range(512, 0x5a);
  const Rung write_range = rung("cluster.write_range", one, 40, [&] {
    const std::size_t offset = rng.next_below(kStripeBytes - range.size() + 1);
    expect(cluster.write_stripe_range_sync(next_stripe(), offset, range).ok(),
           "write_range failed");
  });
  for (NodeId node : kKillSet) cluster.fail_node(node);
  const Rung read_degraded = rung("cluster.read_degraded", one, 20, [&] {
    std::vector<NodeId> avoided;
    expect(cluster.read_stripe_degraded(next_stripe(), 0, kK, {}, avoided).ok(),
           "degraded stripe read failed");
  });
  for (NodeId node : kKillSet) cluster.recover_node(node);
  emit_rung("cluster.write_stripe", write_stripe);
  emit_rung("cluster.read_stripe", read_stripe);
  emit_rung("cluster.write_range", write_range);
  emit_rung("cluster.read_degraded", read_degraded);

  // Facade object ops on an inline (threads = 0) store, one-stripe objects.
  ShardedStoreOptions options;
  options.shards = kShards;
  options.threads = 0;
  options.seed = args_.seed;
  ShardedObjectStore store(config, options);
  std::vector<SimCluster*> shards;
  for (unsigned s = 0; s < kShards; ++s) {
    shards.push_back(&store.shard_cluster(s));
  }
  std::vector<std::uint64_t> ids;
  std::size_t pick = 0;
  auto next_id = [&] { return ids[pick++ % ids.size()]; };
  const auto object = make_value(1, 0, kStripeBytes);
  const Rung put = rung("facade.put", shards, 8, [&] {
    auto id = store.put(object);
    expect(id.ok(), "facade put failed");
    ids.push_back(*id);
  });
  const Rung get = rung("facade.get", shards, 20, [&] {
    auto read = store.get(next_id());
    expect(read.ok() && *read == object, "facade get returned wrong bytes");
  });
  const Rung overwrite = rung("facade.overwrite", shards, 8, [&] {
    expect(store.overwrite(next_id(), object).ok(), "facade overwrite failed");
  });
  const Rung range_write = rung("facade.range_write", shards, 40, [&] {
    const std::size_t offset =
        kHeader + rng.next_below(kStripeBytes - kHeader - range.size() + 1);
    expect(store.overwrite_range(next_id(), offset, range).ok(),
           "facade range write failed");
  });
  emit_rung("facade.put", put);
  emit_rung("facade.get", get);
  emit_rung("facade.overwrite", overwrite);
  emit_rung("facade.range_write", range_write);

  // Self time: a rung minus the rungs it calls times their per-call count.
  emit("cluster.write_stripe_self_us", write_stripe.us - kK * write_block.us,
       "us");
  emit("cluster.read_stripe_self_us", read_stripe.us - kK * read_block.us,
       "us");
  emit("facade.put_self_us", put.us - write_stripe.us, "us");
  emit("facade.get_self_us", get.us - read_stripe.us, "us");
  tracer_.finish(root, now_ns());
}

void Bench::storage_reads(std::uint64_t parent) {
  // Read-only calls on the live store's nodes, at the end-of-run map size.
  // Node 1 (a data node) and node 13 (a parity node) are up in every
  // workload, the degraded_read kill set included.
  SimCluster& cluster = store_->shard_cluster(0);
  auto& data_node = cluster.node(1);
  auto& parity_node = cluster.node(kN - 2);
  const auto stripes = data_node.stripes();
  double stripe_total = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    for (NodeId d = 0; d < kN; ++d) {
      stripe_total += static_cast<double>(
          store_->shard_cluster(s).node(d).stripes().size());
    }
  }
  emit("storage.stripes_per_node", stripe_total / (kShards * kN), "count");
  std::size_t pick = 0;
  auto next = [&] { return stripes[pick++ % stripes.size()]; };
  const Rung replica =
      measure(tracer_, parent, "storage.replica_read", {}, 31, 1000, [&] {
        auto reply = data_node.replica_read(next(), 1);
        cluster.buffer_pool().release(std::move(reply.payload));
      });
  const Rung parity =
      measure(tracer_, parent, "storage.parity_read", {}, 31, 1000, [&] {
        expect(parity_node.parity_read(next()).payload.size() == kChunk,
               "parity read size");
      });
  emit("storage.replica_read_us", replica.us, "us");
  emit("storage.parity_read_us", parity.us, "us");
}

double stored_bytes_per_live_byte(ShardedObjectStore& store,
                                  const std::vector<Object>& objects,
                                  const std::deque<std::uint32_t>& live) {
  double stored = 0, user = 0;
  for (unsigned s = 0; s < store.shard_count(); ++s) {
    for (NodeId d = 0; d < kN; ++d) {
      stored += static_cast<double>(
          store.shard_cluster(s).node(d).bytes_stored());
    }
  }
  for (std::uint32_t slot : live) {
    user += static_cast<double>(objects[slot].size);
  }
  return user > 0 ? stored / user : 0.0;
}

int Bench::run() {
  const HostSample host_before = sample_host();
  preload();
  stored_per_live_setup_ = stored_bytes_per_live_byte(*store_, objects_, live_);
  if (args_.corrupt_shadow) {
    for (std::uint32_t slot : live_) objects_[slot].shadow[kHeader + 7] ^= 0x01;
  }
  const unsigned threads = thread_count();
  if (threads > kThreadBudget) {
    die(2, "thread budget exceeded: " + std::to_string(threads) +
               " threads > 1 driver + " + std::to_string(kStoreThreads) +
               " store workers");
  }

  before_ = read_counters(*store_);
  ops_since_snapshot_ = 0;
  get_stripes_since_snapshot_ = 0;
  const SchedSample sched_before = sample_sched();
  run_timed();
  const SchedSample sched_after = sample_sched();
  after_ = read_counters(*store_);
  store_cpu_ns_ = static_cast<double>(sched_after.run_ns - sched_before.run_ns);
  run_wait_share_ =
      static_cast<double>(sched_after.wait_ns - sched_before.wait_ns) /
      static_cast<double>(std::max<std::int64_t>(
          1, sched_after.at_ns - sched_before.at_ns));
  ops_between_ = std::max<std::uint64_t>(1, ops_since_snapshot_);
  stored_per_live_ = stored_bytes_per_live_byte(*store_, objects_, live_);
  const bool audited = p_.churn_puts_s > 0;
  if (audited) audit();
  if (args_.trace) ladder();
  const HostSample host_after = sample_host();

  bool correct = true;
  if (audited && (audit_failed_ != 0 || audit_checked_ != live_.size())) {
    std::fprintf(stderr,
                 "storebench: read-back audit failed (%llu checked, %llu "
                 "failed, %zu live)\n",
                 static_cast<unsigned long long>(audit_checked_),
                 static_cast<unsigned long long>(audit_failed_), live_.size());
    correct = false;
  }
  if (p_.kill) {
    // Every get must have been served degraded, every stripe of it.
    const std::uint64_t degraded =
        after_.degraded_stripes - before_.degraded_stripes;
    const std::uint64_t needed = get_stripes_since_snapshot_;
    if (degraded < needed) {
      std::fprintf(stderr,
                   "storebench: only %llu of %llu stripe reads served "
                   "degraded\n",
                   static_cast<unsigned long long>(degraded),
                   static_cast<unsigned long long>(needed));
      correct = false;
    }
  }
  if (gets_ok_ == 0 || gets_verified_ == 0) {
    std::fprintf(stderr, "storebench: no read was byte-verified\n");
    correct = false;
  }
  if (!first_error_.empty()) {
    std::fprintf(stderr, "storebench: first failed op: %s\n",
                 first_error_.c_str());
  }
  report(correct, host_before, host_after);
  return 0;
}

void Bench::report(bool correct, const HostSample& before,
                   const HostSample& after) {
  const double seconds = args_.seconds;
  const double ops = static_cast<double>(ops_between_);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  auto pct = [&](const std::vector<Sample>& samples, double q) {
    std::vector<double> values;
    for (const Sample& sample : samples) values.push_back(sample.us);
    return quantile(std::move(values), q);
  };
  std::vector<Metric> out;
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  if (!args_.trace) {
    put("store_cpu_us_per_op", store_cpu_ns_ / 1e3 / ops, "us");
    put("read_p50_us", pct(latency_us_[0], 0.50), "us");
    put("stored_bytes_per_live_byte", stored_per_live_, "B/B");
    put("peak_rss_mb", peak_rss_mb(), "MB");
    put("setup_s", median(setup_cpu_s_), "s");
  } else {
    auto delta = [&](std::uint64_t Counters::*field) {
      return static_cast<double>(after_.*field - before_.*field);
    };
    auto per_op = [&](const char* name, std::uint64_t Counters::*field,
                      const char* unit) {
      put(name, delta(field) / ops, unit);
    };
    put("error_rate",
        ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
        "ratio");
    // Reported, not bounded (README.md "One store worker, a polling driver").
    put("throughput_ops_s",
        static_cast<double>(all_latency_us_.size()) / seconds, "1/s");
    put("op_p50_us", pct(all_latency_us_, 0.50), "us");
    put("op_p90_us", pct(all_latency_us_, 0.90), "us");
    put("op_p99_us", pct(all_latency_us_, 0.99), "us");
    put("read_p90_us", pct(latency_us_[0], 0.90), "us");
    put("read_p99_us", pct(latency_us_[0], 0.99), "us");
    for (int kind = 1; kind < 4; ++kind) {
      const std::string name = kKindName[kind];
      put(name + "_p50_us", pct(latency_us_[kind], 0.50), "us");
      put(name + "_p99_us", pct(latency_us_[kind], 0.99), "us");
    }
    per_op("sim.events_per_op", &Counters::events, "count");
    per_op("net.messages_per_op", &Counters::messages, "count");
    per_op("net.bytes_per_op", &Counters::bytes, "B");
    per_op("net.down_requests_per_op", &Counters::down_requests, "count");
    per_op("cluster.stripe_writes_per_op", &Counters::stripe_writes, "count");
    per_op("cluster.stripe_reads_per_op", &Counters::stripe_reads, "count");
    per_op("cluster.blocks_written_per_op", &Counters::blocks_written, "count");
    per_op("cluster.blocks_read_per_op", &Counters::blocks_read, "count");
    per_op("erasure.blocks_decoded_per_op", &Counters::degraded_blocks,
           "count");
    per_op("degraded.stripe_reads_per_op", &Counters::degraded_stripes,
           "count");
    put("facade.stripes_per_op",
        (delta(&Counters::stripe_writes) + delta(&Counters::stripe_reads) +
         delta(&Counters::degraded_stripes)) / ops,
        "count");
    double max_ops = 0, sum_ops = 0;
    for (std::size_t s = 0; s < after_.shard_stripe_ops.size(); ++s) {
      const double d = static_cast<double>(after_.shard_stripe_ops[s] -
                                           before_.shard_stripe_ops[s]);
      max_ops = std::max(max_ops, d);
      sum_ops += d;
    }
    const double shards = static_cast<double>(after_.shard_stripe_ops.size());
    put("facade.shard_skew", ratio(max_ops, sum_ops / shards), "ratio");
    put("facade.queue_depth_mean", mean(queue_depth_samples_), "count");
    const double conflicts = delta(&Counters::lease_conflicts);
    put("lease.conflict_rate",
        ratio(conflicts, delta(&Counters::lease_grants) + conflicts), "ratio");
    per_op("pool.heap_refills_per_op", &Counters::pool_refills, "count");
    per_op("pool.acquires_per_op", &Counters::pool_acquires, "count");
    put("client.submit_wait_mean_us", mean(submit_wait_us_), "us");
    put("driver.late_p99_us", quantile(late_us_, 0.99), "us");
    put("driver.verified_read_share",
        ratio(static_cast<double>(gets_verified_),
              static_cast<double>(gets_ok_)),
        "ratio");
    put("driver.deferred_writes", static_cast<double>(deferred_writes_),
        "count");
    put("storage.bytes_per_live_byte_after_setup", stored_per_live_setup_,
        "B/B");
    put("host.cpu_wait_share", run_wait_share_, "ratio");
    put("host.setup_wall_s", median(setup_wall_s_), "s");
    // Tracing overhead: median op latency, traced vs untraced slices.
    std::vector<Sample> traced, untraced;
    for (const Sample& sample : all_latency_us_) {
      (traced_slice(sample.sched_ns) ? traced : untraced).push_back(sample);
    }
    const double untraced_p50 = pct(untraced, 0.5);
    put("trace.overhead_pct",
        untraced_p50 > 0 ? (pct(traced, 0.5) / untraced_p50 - 1.0) * 100.0
                         : 0.0,
        "%");
    for (const Metric& m : metrics_) out.push_back(m);
  }

  // Run record: reproducibility facts, on stderr and in --record-out.
  std::ostringstream record;
  record << "{\"workload\":\"" << p_.name << "\",\"seed\":" << args_.seed
         << ",\"seconds\":" << json_number(seconds)
         << ",\"trace\":" << (args_.trace ? 1 : 0)
         << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
         << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
         << ",\"gf_kernel\":\"" << traperc::gf::kernels::active().name << "\""
         << ",\"threads\":" << kThreadBudget
         << ",\"steal_ticks_before\":" << before.steal_ticks
         << ",\"steal_ticks_after\":" << after.steal_ticks
         << ",\"loadavg1_before\":" << json_number(before.loadavg1)
         << ",\"loadavg1_after\":" << json_number(after.loadavg1)
         << ",\"worker_cpu_wait_share\":" << json_number(run_wait_share_)
         << ",\"setup_cpu_s\":" << json_number(median(setup_cpu_s_))
         << ",\"setup_wall_s\":" << json_number(median(setup_wall_s_))
         << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
         << ",\"lease_conflicts\":" << conflicts_
         << ",\"gets_ok\":" << gets_ok_
         << ",\"gets_verified\":" << gets_verified_
         << ",\"audit_checked\":" << audit_checked_
         << ",\"correct\":" << (correct ? "true" : "false") << "}";
  std::fprintf(stderr, "record %s\n", record.str().c_str());
  if (!args_.record_out.empty()) {
    std::ofstream(args_.record_out) << record.str() << "\n";
  }
  tracer_.write(args_.trace_out);

  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << std::max<std::uint64_t>(1, attempted_)
       << ",\"failed\":" << failed_ << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.size(); ++i) {
    line << (i ? "," : "") << "\"" << out[i].name << "\":{\"value\":"
         << json_number(out[i].value) << ",\"unit\":\"" << out[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die(2, "missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--record-out") {
      args.record_out = value();
    } else if (flag == "--corrupt-shadow") {
      args.corrupt_shadow = true;
    } else {
      die(2, "unknown argument " + flag);
    }
  }
#ifndef NDEBUG
  die(2, "refusing to run: built without NDEBUG (not a Release build)");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    die(2, std::string("refusing to run: build type is ") +
               PERFBENCH_BUILD_TYPE +
               ", not Release");
  }
  if (!(args.seconds > 0) || args.seconds > 600) {
    die(2, "--seconds must be in (0, 600]");
  }
  const Params* params = nullptr;
  for (const Params& p : kWorkloads) {
    if (args.workload == p.name) params = &p;
  }
  if (params == nullptr) die(2, "unknown workload '" + args.workload + "'");
  now_ns();  // pin the clock origin
  Bench bench(*params, args);
  return bench.run();
}
