// assess_perfbench: the repository benchmark. One process runs one named
// workload against one fixed assessd deployment:
//
//   assess_perfbench --workload explore|dashboard|live_ingest --seed N
//                    --seconds S --trace 0|1
//
// Run it from the checkout root: data dirs and traces go under kWorkdir.
//
// 1. Set-up (timed, kSetups times; the median is setup_s): generate SSB at
//    SF 0.1 inside a DurabilityManager bootstrap (group commit, checkpoint 1
//    sealed), materialize the coarse views, start an in-process AssessServer
//    (cache, MQO window, profiler and ingest on), connect the clients and
//    run the warm-up statements. The first instance serves the timed phase;
//    the next two are fresh copies the replays run on.
// 2. Timed phase: one load-generator thread runs the schedule (schedule.h)
//    closed loop over loopback connections, with no trace installed. It
//    reads the process CPU clock around every request (the end-to-end
//    metrics) and times every reply as the client sees it (per layer).
// 3. Replay (replay.h): the same schedule single-threaded in process, at
//    the same epochs. Its digests check every answer of step 2; with
//    --trace 1 a second, traced replay gives the per-layer numbers.
//
// Layers are only measured from outside: spans around public calls (replay)
// and the public counters (ServerStats, CacheStats, IngestStats, WalStats).
// The last stdout line is the result object (correct, attempted, failed and
// the metrics); the lines before it print every metric by name, unit and
// sample count, the host/config fingerprint and the schedule counts.

#include <poll.h>
#include <sched.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cube_cache.h"
#include "assess/wire_format.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "replay.h"
#include "schedule.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "ssb/ssb_generator.h"
#include "storage/star_query_engine.h"
#include "wal/durability.h"

namespace perfbench {

/// The CPU the whole process is confined to (see main).
int g_cpu = -1;

namespace {

namespace fs = std::filesystem;
using assess::AssessServer;
using assess::CacheStats;
using assess::DurabilityManager;
using assess::FrameType;
using assess::IngestStats;
using assess::ServerStats;
using assess::Status;
using assess::Stopwatch;
using assess::WalStats;

// ------------------------------------------------------------ deployment
// One configuration for every workload (recorded in the fingerprint).
constexpr double kScaleFactor = 0.1;
constexpr int kServerWorkers = 4;
constexpr int64_t kMqoWindowUs = 300;
constexpr int kMqoMaxBatch = 4;  // the dashboard's tile count
constexpr int64_t kCheckpointWalBytes = int64_t{1} << 20;
constexpr int kSetups = 7;
// A reply slower than this fails the run instead of hanging it.
constexpr int kReplyTimeoutMs = 60000;
// Data dirs and traces, relative to the checkout root (the build's home).
constexpr const char* kWorkdir = ".bench_build/perfbench";
const std::vector<std::vector<std::string>> kViews = {
    {"month", "c_nation"}, {"year", "s_region", "mfgr"}};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Wall time of each set-up step, and the process CPU time of all of them.
struct SetupTimes {
  double generate = 0, bootstrap = 0, views = 0, start = 0, warmup = 0;
  double cpu = 0;
  double total() const { return generate + bootstrap + views + start + warmup; }
};

/// User plus system CPU time of every thread of the process so far.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One client connection of the load generator. It speaks the framed
/// protocol directly, as AssessClient::Query and ::Ingest do, but splits
/// send from receive so that one thread can keep a request in flight on
/// every connection at once.
class Connection {
 public:
  static assess::Result<Connection> Open(uint16_t port, uint64_t index) {
    auto fd = assess::ConnectTo("127.0.0.1", port);
    if (!fd.ok()) return fd.status();
    return Connection(*fd, index);
  }
  Connection(Connection&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), next_id_(other.next_id_) {}
  Connection& operator=(Connection&& other) noexcept {
    std::swap(fd_, other.fd_);
    next_id_ = other.next_id_;
    return *this;
  }
  ~Connection() { assess::CloseSocket(fd_); }

  int fd() const { return fd_; }

  Status Send(std::string_view statement) {
    return assess::WriteFrame(
        fd_, FrameType::kQuery,
        assess::EncodeQueryPayload(next_id_++, statement));
  }

  assess::Result<assess::AssessResult> Receive() {
    auto payload = ReadPayload(FrameType::kResult);
    if (!payload.ok()) return payload.status();
    return assess::DeserializeAssessResult(*payload);
  }

  assess::Result<assess::AssessResult> Query(std::string_view statement) {
    Status sent = Send(statement);
    if (!sent.ok()) return sent;
    return Receive();
  }

  assess::Result<IngestStats> Ingest(std::string_view csv) {
    Status sent = assess::WriteFrame(
        fd_, FrameType::kIngest,
        assess::EncodeIngestPayload(next_id_++, "SSB",
                                    assess::IngestFormat::kCsv, 0, csv));
    if (!sent.ok()) return sent;
    auto payload = ReadPayload(FrameType::kIngestReply);
    if (!payload.ok()) return payload.status();
    return IngestStats::Deserialize(*payload);
  }

 private:
  // Request ids are the server's retry-dedup keys: unique across the run's
  // connections (index in the top bits) and never 0 ("no dedup").
  Connection(int fd, uint64_t index) : fd_(fd), next_id_((index << 40) + 1) {}

  assess::Result<std::string> ReadPayload(FrameType expected) {
    assess::Frame frame;
    Status read = assess::ReadFrame(fd_, assess::kDefaultMaxFrameBytes, &frame);
    if (!read.ok()) return read;
    if (frame.type == FrameType::kError) {
      Status remote = Status::OK();
      Status decoded = assess::DeserializeStatus(frame.payload, &remote);
      return decoded.ok() ? remote : decoded;
    }
    if (frame.type != expected) {
      return Status::Internal("unexpected frame type");
    }
    return std::move(frame.payload);
  }

  int fd_ = -1;
  uint64_t next_id_ = 1;
};

/// One deployed instance: data dir, durable database, server, connections.
struct Instance {
  std::string dir;
  std::unique_ptr<DurabilityManager> durability;
  std::shared_ptr<assess::CubeResultCache> cache;
  std::unique_ptr<AssessServer> server;
  std::vector<Connection> clients;
  std::optional<Connection> ingest_client;
  SetupTimes times;

  void StopServer() {
    clients.clear();
    ingest_client.reset();
    if (server) server->Stop();
    server.reset();
  }
};

Status Fail(const std::string& what, const Status& s) {
  return Status::Internal(what + ": " + s.ToString());
}

Status SetUp(const Options& opt, const fs::path& run_dir, int index,
             Schedule* schedule, Instance* inst) {
  inst->dir = (run_dir / ("instance-" + std::to_string(index))).string();
  fs::remove_all(inst->dir);
  SetupTimes& t = inst->times;

  double cpu0 = ProcessCpuSeconds();
  Stopwatch watch;
  assess::DurabilityOptions durability;
  durability.wal.fsync_mode = assess::FsyncMode::kGroup;
  durability.checkpoint_wal_bytes = kCheckpointWalBytes;
  auto opened = DurabilityManager::Open(
      inst->dir, durability,
      [&t]() -> assess::Result<std::unique_ptr<assess::StarDatabase>> {
        Stopwatch gen;
        assess::SsbConfig config;
        config.scale_factor = kScaleFactor;
        auto db = assess::BuildSsbDatabase(config);
        t.generate = gen.ElapsedSeconds();
        return db;
      });
  if (!opened.ok()) return Fail("open data dir", opened.status());
  inst->durability = std::move(opened).value();
  t.bootstrap = watch.ElapsedSeconds() - t.generate;
  t.cpu = ProcessCpuSeconds() - cpu0;
  assess::StarDatabase* db = inst->durability->db();

  if (schedule->rounds.empty()) {  // built once, outside the timed set-up
    std::string error;
    if (!BuildSchedule(opt.workload, opt.seed, opt.seconds, *db, schedule,
                       &error)) {
      return Status::InvalidArgument(error);
    }
  }

  cpu0 = ProcessCpuSeconds();
  watch.Restart();
  assess::EngineOptions view_engine;
  view_engine.use_views = false;
  view_engine.use_result_cache = false;
  assess::StarQueryEngine engine(db, view_engine);
  for (const auto& levels : kViews) {
    std::string name = "v";
    for (const std::string& l : levels) name += "_" + l;
    auto built = engine.MaterializeView(db, "SSB", levels, name);
    if (!built.ok()) return Fail("materialize " + name, built.status());
  }
  t.views = watch.ElapsedSeconds();

  watch.Restart();
  inst->cache = std::make_shared<assess::CubeResultCache>();
  assess::ServerOptions server;
  server.worker_threads = kServerWorkers;
  server.mqo_window_us = kMqoWindowUs;
  server.mqo_max_batch = kMqoMaxBatch;
  server.workload_profile = true;
  server.engine.shared_cache = inst->cache;
  server.mutable_db = db;
  server.durability = inst->durability.get();
  inst->server = std::make_unique<AssessServer>(db, std::move(server));
  Status started = inst->server->Start();
  if (!started.ok()) return Fail("server start", started);
  const uint16_t port = inst->server->port();
  for (int c = 0; c < schedule->query_clients; ++c) {
    auto client = Connection::Open(port, 1 + c);
    if (!client.ok()) return Fail("connect", client.status());
    inst->clients.push_back(std::move(client).value());
  }
  if (schedule->has_ingest_client) {
    auto client = Connection::Open(port, 100);
    if (!client.ok()) return Fail("connect", client.status());
    inst->ingest_client.emplace(std::move(client).value());
  }
  t.start = watch.ElapsedSeconds();

  watch.Restart();
  for (Connection& client : inst->clients) {
    for (const std::string& text : schedule->warmup) {
      auto result = client.Query(text);
      if (!result.ok()) return Fail("warm-up", result.status());
    }
  }
  t.warmup = watch.ElapsedSeconds();
  t.cpu += ProcessCpuSeconds() - cpu0;
  return Status::OK();
}

// ----------------------------------------------------------- timed phase

struct LoopResult {
  std::vector<double> latency_ms;       ///< every query, client-observed
  /// CPU time of the whole process (server and load generator) per wave,
  /// divided by the wave's statements: one sample per wave.
  std::vector<double> cpu_ms;
  std::vector<double> ingest_cpu_ms;    ///< the same, per ingest batch
  double cpu_s = 0;                     ///< the whole timed phase
  /// Per segment (kSegments): its queries' latencies and its wall time,
  /// from the start of its first round to the start of the next segment's.
  std::vector<std::vector<double>> segment_ms;
  std::vector<double> segment_wall_s;
  std::vector<double> segment_cpu_s;    ///< process CPU time per segment
  std::vector<ResultDigest> digests;    ///< schedule order
  std::vector<double> ingest_ms;        ///< receipt latency per batch
  int64_t query_failures = 0;
  int64_t ingest_failures = 0;
  IngestStats ingested;                 ///< summed receipts
  std::string first_error;
};

/// The load generator: one thread drives every connection. A round commits
/// its ingest batch first, then runs its statements in waves: wave i sends
/// the i-th statement of every client that has one on that client's
/// connection, then reads the replies in arrival order. Each latency runs
/// from the wave's first send to the moment its reply is decoded. The
/// process CPU clock is read around every wave and every ingest batch: with
/// one thread generating the load, nothing else runs in the process between
/// two reads, so the difference is what that request cost the deployment.
LoopResult RunLoad(const Schedule& s, Instance* inst) {
  LoopResult out;
  const int clients = s.query_clients;
  const size_t rounds = s.rounds.size();
  const size_t per_segment = rounds / kSegments;
  out.digests.resize(s.statement_count());
  out.segment_ms.resize(kSegments);
  std::vector<std::chrono::steady_clock::time_point> marks(kSegments + 1);
  std::vector<double> cpu_marks(kSegments + 1);
  auto fail = [&out](int64_t* counter, const Status& status) {
    ++*counter;
    if (out.first_error.empty()) out.first_error = status.ToString();
  };

  int64_t op = 0;  // schedule-order index of the round's first statement
  std::vector<int64_t> ops(clients);
  std::vector<std::optional<assess::AssessResult>> replies(clients);
  std::vector<pollfd> polls;
  std::vector<int> poll_client;  // polls[k] waits for client poll_client[k]
  const double cpu_start = ProcessCpuSeconds();
  // Returns early only when a reply does not come in time: the connections
  // are then out of step, and the run ends as failed.
  [&] {
    for (size_t r = 0; r < rounds; ++r) {
      if (r % per_segment == 0) {
        marks[r / per_segment] = std::chrono::steady_clock::now();
        cpu_marks[r / per_segment] = ProcessCpuSeconds();
      }
      std::vector<double>& samples = out.segment_ms[r / per_segment];
      const Round& round = s.rounds[r];
      if (!round.ingest_csv.empty()) {
        const double cpu0 = ProcessCpuSeconds();
        Stopwatch watch;
        auto receipt = inst->ingest_client->Ingest(round.ingest_csv);
        out.ingest_ms.push_back(watch.ElapsedMillis());
        out.ingest_cpu_ms.push_back(1e3 * (ProcessCpuSeconds() - cpu0));
        const auto rows = static_cast<uint64_t>(round.ingest_rows);
        if (!receipt.ok()) {
          fail(&out.ingest_failures, receipt.status());
        } else if (receipt->rows_ingested != rows) {
          fail(&out.ingest_failures, Status::Internal("ingest row count"));
        } else {
          out.ingested.rows_ingested += receipt->rows_ingested;
          out.ingested.batches += receipt->batches;
          out.ingested.mv_incremental_updates +=
              receipt->mv_incremental_updates;
          out.ingested.mv_full_rebuilds += receipt->mv_full_rebuilds;
          out.ingested.cache_invalidations += receipt->cache_invalidations;
          out.ingested.repacks += receipt->repacks;
        }
      }
      size_t waves = 0;
      for (int c = 0; c < clients; ++c) {
        ops[c] = op;
        op += static_cast<int64_t>(round.statements[c].size());
        waves = std::max(waves, round.statements[c].size());
      }
      for (size_t i = 0; i < waves; ++i) {
        const double cpu0 = ProcessCpuSeconds();
        Stopwatch watch;
        polls.clear();
        poll_client.clear();
        for (int c = 0; c < clients; ++c) {
          if (i >= round.statements[c].size()) continue;
          Status sent = inst->clients[c].Send(round.statements[c][i]);
          if (sent.ok()) {
            polls.push_back({inst->clients[c].fd(), POLLIN, 0});
            poll_client.push_back(c);
          } else {
            fail(&out.query_failures, sent);
          }
        }
        for (size_t pending = polls.size(); pending > 0;) {
          if (::poll(polls.data(), polls.size(), kReplyTimeoutMs) <= 0) {
            fail(&out.query_failures, Status::Internal("no reply in time"));
            return;
          }
          for (size_t k = 0; k < polls.size(); ++k) {
            if (polls[k].revents == 0 || polls[k].fd < 0) continue;
            const int c = poll_client[k];
            auto result = inst->clients[c].Receive();
            samples.push_back(watch.ElapsedMillis());
            if (result.ok()) {
              replies[c] = std::move(result).value();
            } else {
              fail(&out.query_failures, result.status());
            }
            polls[k].fd = -1;  // poll ignores negative descriptors
            --pending;
          }
        }
        if (!polls.empty()) {
          out.cpu_ms.push_back(1e3 * (ProcessCpuSeconds() - cpu0) /
                               static_cast<double>(polls.size()));
        }
        // Digests outside the measured window, in schedule order.
        for (int c = 0; c < clients; ++c) {
          if (!replies[c]) continue;
          out.digests[ops[c] + static_cast<int64_t>(i)] =
              DigestResult(*replies[c]);
          replies[c].reset();
        }
      }
    }
  }();
  marks[kSegments] = std::chrono::steady_clock::now();
  cpu_marks[kSegments] = ProcessCpuSeconds();
  out.cpu_s = cpu_marks[kSegments] - cpu_start;

  for (int seg = 0; seg < kSegments; ++seg) {
    out.segment_wall_s.push_back(
        std::chrono::duration<double>(marks[seg + 1] - marks[seg]).count());
    out.segment_cpu_s.push_back(cpu_marks[seg + 1] - cpu_marks[seg]);
    const std::vector<double>& v = out.segment_ms[seg];
    out.latency_ms.insert(out.latency_ms.end(), v.begin(), v.end());
  }
  return out;
}

// --------------------------------------------------------------- helpers

/// The statement at schedule-order index `i`.
std::string StatementAt(const Schedule& s, size_t i) {
  for (const Round& round : s.rounds) {
    for (const auto& client : round.statements) {
      if (i < client.size()) return client[i];
      i -= client.size();
    }
  }
  return "";
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The latency distribution on stderr: counts per power-of-two bucket and
/// the percentiles around the reported ones, to check that p50 and p99 sit
/// inside a latency mode rather than on the edge between two.
void PrintHistogram(const char* what, const std::vector<double>& ms) {
  if (ms.empty()) return;
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr, "perfbench: %s histogram (ms, %zu samples)\n", what,
               sorted.size());
  double lo = 1.0 / 64;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t n = 0;
    while (i < sorted.size() && sorted[i] < 2 * lo) ++n, ++i;
    if (n > 0) {
      std::fprintf(stderr, "  [%8.3f, %8.3f) %7zu %5.1f%%\n", lo, 2 * lo, n,
                   100.0 * n / sorted.size());
    }
    lo *= 2;
  }
  std::fprintf(stderr, "  percentiles:");
  for (double p : {0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.97, 0.98, 0.99, 0.995}) {
    std::fprintf(stderr, " p%g=%.3f", 100 * p, Percentile(sorted, p));
  }
  std::fprintf(stderr, "\n");
}

/// Cumulative steal and total jiffies of all CPUs (/proc/stat): the share
/// of CPU time the hypervisor gave to other guests.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Json(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* section, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-34s %14.6g %-8s samples=%lld\n", section, m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && opt->seconds > 0 &&
         std::find(names.begin(), names.end(), opt->workload) != names.end();
}

int Run(const Options& opt) {
  const fs::path run_dir =
      fs::path(kWorkdir) / ("run-" + std::to_string(::getpid()));
  fs::create_directories(run_dir);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{run_dir};

  Schedule schedule;
  std::vector<SetupTimes> setups;

  // ---- set-up #1 and the timed phase.
  Instance live;
  Status status = SetUp(opt, run_dir, 0, &schedule, &live);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  setups.push_back(live.times);
  DurabilityManager& wal = *live.durability;
  const ServerStats server0 = live.server->Snapshot();
  const CacheStats cache0 = live.cache->stats();
  const WalStats wal0 = wal.wal_stats();
  const uint64_t checkpoints0 = wal.checkpoints();

  const auto steal0 = StealJiffies();
  LoopResult loop = RunLoad(schedule, &live);
  const auto steal1 = StealJiffies();

  const ServerStats server1 = live.server->Snapshot();
  const CacheStats cache1 = live.cache->stats();
  const WalStats wal1 = wal.wal_stats();
  const uint64_t checkpoints1 = wal.checkpoints();
  const double peak_rss_mb = PeakRssMb();
  const std::string data_fs = FilesystemName(live.dir);
  live.StopServer();
  live.durability.reset();

  // ---- set-ups #2 to #kSetups; the first two of them serve the replays.
  std::vector<Instance> replicas(kSetups - 1);
  for (int i = 0; i < kSetups - 1; ++i) {
    status = SetUp(opt, run_dir, i + 1, &schedule, &replicas[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    replicas[i].StopServer();
    if (i >= 2) replicas[i].durability.reset();
    setups.push_back(replicas[i].times);
  }
  ReplayResult plain =
      Replay(schedule, replicas[0].durability.get(), false, &loop.digests);
  ReplayResult traced;
  if (opt.trace) traced = Replay(schedule, replicas[1].durability.get(), true);

  // ---- correctness: every answer against the in-process ones.
  std::vector<std::string> problems;
  if (!plain.status.ok()) problems.push_back(plain.status.ToString());
  if (opt.trace && !traced.status.ok()) {
    problems.push_back(traced.status.ToString());
  }
  if (opt.trace && traced.status.ok() && plain.status.ok() &&
      traced.digests != plain.digests) {
    problems.push_back("traced replay answers differ from the plain replay");
  }
  const int64_t wrong = plain.wrong;
  for (int64_t op : plain.wrong_ops) {
    std::fprintf(stderr,
                 "perfbench: statement %lld: %lld rows over the wire, %lld "
                 "in process: %s\n",
                 static_cast<long long>(op),
                 static_cast<long long>(loop.digests[op].rows),
                 static_cast<long long>(plain.digests[op].rows),
                 StatementAt(schedule, op).c_str());
  }
  if (wrong > 0) {
    problems.push_back(std::to_string(wrong) +
                       " answer(s) differ from the in-process session");
  }
  if (!loop.first_error.empty()) {
    problems.push_back("first failure: " + loop.first_error);
  }

  const int64_t statements = schedule.statement_count();
  const int64_t batches = schedule.ingest_batches();
  const int64_t attempted = statements + batches;
  const int64_t failed = loop.query_failures + loop.ingest_failures + wrong;

  // ---- layer counters over the timed phase.
  const uint64_t hits = (cache1.exact_hits - cache0.exact_hits) +
                        (cache1.subsumption_hits - cache0.subsumption_hits);
  const uint64_t lookups = cache1.lookups - cache0.lookups;
  const uint64_t misses = cache1.misses - cache0.misses;
  const uint64_t evictions = cache1.evictions - cache0.evictions;
  const uint64_t epoch_sweeps =
      cache1.epoch_invalidations - cache0.epoch_invalidations;
  const uint64_t scanned = server1.morsels_scanned - server0.morsels_scanned;
  const uint64_t skipped = server1.morsels_skipped - server0.morsels_skipped;
  const uint64_t shared_scans =
      server1.mqo_shared_scans - server0.mqo_shared_scans;
  const uint64_t batched =
      server1.mqo_queries_batched - server0.mqo_queries_batched;
  const uint64_t mqo_batches = server1.mqo_batches - server0.mqo_batches;
  const uint64_t piggybacked =
      server1.mqo_queries_piggybacked - server0.mqo_queries_piggybacked;
  const uint64_t appends = wal1.appends - wal0.appends;
  const uint64_t fsyncs = wal1.fsyncs - wal0.fsyncs;
  const uint64_t wal_bytes = wal1.bytes_written - wal0.bytes_written;
  const uint64_t checkpoints = checkpoints1 - checkpoints0;

  // ---- layer-load predictions: each workload keeps its designed shape.
  auto expect = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back("shape: " + what);
  };
  const size_t samples = loop.cpu_ms.size();
  const int64_t tail = static_cast<int64_t>(
      samples - static_cast<size_t>(std::ceil(0.99 * samples)));
  expect(tail >= 10, "fewer than 10 samples beyond p99 (" +
                         std::to_string(tail) + ")");
  const int64_t designed_hits = statements - schedule.designed_miss_statements;
  if (schedule.workload == "explore") {
    expect(hits == 0, "explore cache hits " + std::to_string(hits) + " != 0");
    expect(static_cast<int64_t>(misses) >= statements,
           "explore: a statement's gets did not all miss");
    expect(evictions > 0, "explore cache evictions == 0");
    expect(shared_scans * 100 <= static_cast<uint64_t>(statements),
           "explore MQO shared scans " + std::to_string(shared_scans) +
               " above 1% of statements");
  } else if (schedule.workload == "dashboard") {
    // Every hit round hits, and each filter's miss round scans. How many
    // scans a miss round runs depends on whether its tiles land in one MQO
    // window, so only the lower bound is exact.
    const int64_t scans = static_cast<int64_t>(shared_scans + misses);
    expect(static_cast<int64_t>(hits) >= designed_hits,
           "dashboard cache hits " + std::to_string(hits) + " < designed " +
               std::to_string(designed_hits));
    expect(scans >= schedule.designed_filters,
           "dashboard scans " + std::to_string(scans) + " < filters " +
               std::to_string(schedule.designed_filters));
    expect(evictions == 0, "dashboard cache evictions > 0");
    expect(shared_scans > 0, "dashboard MQO shared scans == 0");
  } else if (schedule.workload == "live_ingest") {
    expect(static_cast<int64_t>(misses) == schedule.designed_miss_statements &&
               static_cast<int64_t>(hits) == designed_hits,
           "live_ingest cache misses/hits " + std::to_string(misses) + "/" +
               std::to_string(hits) + " != designed " +
               std::to_string(schedule.designed_miss_statements) + "/" +
               std::to_string(designed_hits));
    expect(epoch_sweeps > 0, "live_ingest epoch invalidations == 0");
    expect(checkpoints >= 3, "live_ingest checkpoints " +
                                 std::to_string(checkpoints) + " < 3");
    expect(static_cast<int64_t>(appends) == batches,
           "live_ingest WAL appends " + std::to_string(appends) +
               " != batches " + std::to_string(batches));
  }

  // ---- metrics.
  auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total());
  const double setup_wall_s = Median(setup_totals);
  const int64_t n = static_cast<int64_t>(loop.latency_ms.size());
  const int64_t nsetups = static_cast<int64_t>(setups.size());

  // Client-observed wall time: qps and p50 are medians over the segments,
  // p99 is over the whole run, whose tail is the only one with at least ten
  // samples beyond it.
  std::vector<double> segment_qps, segment_p50;
  for (int seg = 0; seg < kSegments; ++seg) {
    segment_qps.push_back(
        Ratio(static_cast<double>(loop.segment_ms[seg].size()),
              loop.segment_wall_s[seg]));
    segment_p50.push_back(Percentile(loop.segment_ms[seg], 0.50));
  }
  std::fprintf(stderr, "perfbench: segments qps/p50_ms/cpu_ms_per_request:");
  for (int seg = 0; seg < kSegments; ++seg) {
    std::fprintf(stderr, " %.1f/%.3f/%.4f", segment_qps[seg], segment_p50[seg],
                 1e3 * Ratio(loop.segment_cpu_s[seg],
                             static_cast<double>(attempted) / kSegments));
  }
  std::fprintf(stderr, "\n");
  const int64_t nwaves = static_cast<int64_t>(loop.cpu_ms.size());
  std::vector<Metric> e2e = {
      {"cpu_ms_per_request",
       1e3 * Ratio(loop.cpu_s, static_cast<double>(attempted)), "ms",
       attempted},
      {"cpu_p50_ms", Percentile(loop.cpu_ms, 0.50), "ms", nwaves},
      {"cpu_p99_ms", Percentile(loop.cpu_ms, 0.99), "ms", nwaves},
      {"setup_s", median_of(&SetupTimes::cpu), "s", nsetups},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
  };
  // Reported, not gated: 0 on a correct run, which the result object's
  // attempted/failed fields carry as well.
  const Metric error_rate = {"error_rate",
                             Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
                             "ratio", attempted};

  const LayerTotals& t = traced.totals;
  const double ns = static_cast<double>(std::max<int64_t>(t.statements, 1));
  const double nb = static_cast<double>(std::max<int64_t>(t.batches, 1));
  const int64_t stmts = t.statements;
  std::vector<Metric> layers = {
      {"client.qps", Median(segment_qps), "1/s", statements},
      {"client.p50_ms", Median(segment_p50), "ms", n},
      {"client.p99_ms", Percentile(loop.latency_ms, 0.99), "ms", n},
      {"replay.statement_ms", 1e3 * t.statement / ns, "ms", stmts},
      {"assess.parse_ms", 1e3 * t.parse / ns, "ms", stmts},
      {"assess.analyze_ms", 1e3 * t.analyze / ns, "ms", stmts},
      {"assess.plan_ms", 1e3 * t.plan / ns, "ms", stmts},
      {"assess.execute_ms", 1e3 * t.execute_self / ns, "ms", stmts},
      {"storage.get_ms", 1e3 * t.get / ns, "ms", stmts},
      {"assess.transform_ms", 1e3 * t.transform / ns, "ms", stmts},
      {"assess.join_ms", 1e3 * t.join / ns, "ms", stmts},
      {"functions.compare_ms", 1e3 * t.compare / ns, "ms", stmts},
      {"labeling.label_ms", 1e3 * t.label / ns, "ms", stmts},
      {"wire.serialize_ms", 1e3 * t.serialize / ns, "ms", stmts},
      {"wire.deserialize_ms", 1e3 * t.deserialize / ns, "ms", stmts},
      {"wire.result_kb", t.result_bytes / 1024.0 / ns, "KiB", stmts},
      {"unattributed_ms", 1e3 * t.unattributed / ns, "ms", stmts},
      {"trace.overhead_pct",
       100.0 * Ratio(traced.wall_s - plain.wall_s, plain.wall_s), "%", 2},
      {"server.p50_ms", server1.p50_ms, "ms",
       static_cast<int64_t>(server1.latency_samples)},
      {"server.p99_ms", server1.p99_ms, "ms",
       static_cast<int64_t>(server1.latency_samples)},
      {"verify.cold_path_answers", static_cast<double>(plain.cold_path),
       "count", statements},
      {"cache.hit_rate", Ratio(static_cast<double>(hits), lookups), "ratio",
       static_cast<int64_t>(lookups)},
      {"cache.exact_hits",
       static_cast<double>(cache1.exact_hits - cache0.exact_hits), "count", 1},
      {"cache.subsumption_hits",
       static_cast<double>(cache1.subsumption_hits - cache0.subsumption_hits),
       "count", 1},
      {"cache.misses", static_cast<double>(misses), "count", 1},
      {"cache.evictions", static_cast<double>(evictions), "count", 1},
      {"cache.epoch_invalidations", static_cast<double>(epoch_sweeps), "count",
       1},
      {"cache.bytes_resident", static_cast<double>(cache1.bytes_resident),
       "bytes", 1},
      {"storage.morsels_scanned_per_stmt",
       Ratio(static_cast<double>(scanned), statements), "count", statements},
      {"storage.morsel_skip_rate",
       Ratio(static_cast<double>(skipped),
             static_cast<double>(scanned + skipped)),
       "ratio", static_cast<int64_t>(scanned + skipped)},
      {"mqo.shared_scans", static_cast<double>(shared_scans), "count", 1},
      {"mqo.queries_per_batch",
       Ratio(static_cast<double>(batched), mqo_batches), "count",
       static_cast<int64_t>(mqo_batches)},
      {"mqo.piggyback_share",
       Ratio(static_cast<double>(piggybacked), statements), "ratio",
       statements},
      {"ingest.receipt_p50_ms", Percentile(loop.ingest_ms, 0.50), "ms",
       static_cast<int64_t>(loop.ingest_ms.size())},
      {"ingest.cpu_p50_ms", Percentile(loop.ingest_cpu_ms, 0.50), "ms",
       static_cast<int64_t>(loop.ingest_cpu_ms.size())},
      {"ingest.rows_per_s",
       Ratio(static_cast<double>(loop.ingested.rows_ingested),
             [&] {
               double sum = 0;
               for (double ms : loop.ingest_ms) sum += ms;
               return sum / 1e3;
             }()),
       "rows/s", static_cast<int64_t>(loop.ingest_ms.size())},
      {"ingest.commit_ms", 1e3 * t.ingest_self / nb, "ms", t.batches},
      {"ingest.mv_delta_merges",
       static_cast<double>(loop.ingested.mv_incremental_updates), "count", 1},
      {"ingest.repacks", static_cast<double>(loop.ingested.repacks), "count",
       1},
      {"wal.commit_ms", 1e3 * t.wal_commit / nb, "ms", t.batches},
      {"wal.fsyncs_per_append", Ratio(static_cast<double>(fsyncs), appends),
       "ratio", static_cast<int64_t>(appends)},
      {"wal.bytes_per_row",
       Ratio(static_cast<double>(wal_bytes),
             static_cast<double>(loop.ingested.rows_ingested)),
       "bytes", static_cast<int64_t>(loop.ingested.rows_ingested)},
      {"wal.checkpoint_ms",
       1e3 * Ratio(t.checkpoint, static_cast<double>(t.checkpoints)), "ms",
       t.checkpoints},
      {"wal.checkpoints", static_cast<double>(checkpoints), "count", 1},
      {"setup.wall_s", setup_wall_s, "s", nsetups},
      {"setup.generate_s", median_of(&SetupTimes::generate), "s", nsetups},
      {"setup.views_s", median_of(&SetupTimes::views), "s", nsetups},
      {"setup.bootstrap_s", median_of(&SetupTimes::bootstrap), "s", nsetups},
      {"setup.start_s", median_of(&SetupTimes::start), "s", nsetups},
      {"setup.warmup_s", median_of(&SetupTimes::warmup), "s", nsetups},
  };

  // ---- fingerprint, schedule counts, report.
  char fingerprint[1024];
  std::snprintf(
      fingerprint, sizeof(fingerprint),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"nproc\": %u, \"pinned_cpu\": %d, \"scan_threads\": 1, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"tracing_compiled\": %s, \"failpoints_compiled\": %s, "
      "\"scale_factor\": %g, \"facts\": %lld, \"budget_facts\": %lld, "
      "\"views\": \"month,c_nation; year,s_region,mfgr\", "
      "\"server\": {\"workers\": %d, \"mqo_window_us\": %lld, "
      "\"mqo_max_batch\": %d, \"cache_budget_mb\": 64, \"workload_profile\": "
      "true, \"slow_query_log\": false, \"http\": false, "
      "\"fsync_mode\": \"group\", \"checkpoint_wal_bytes\": %lld, "
      "\"data_dir_fs\": \"%s\"}, \"host_steal_pct\": %.1f, "
      "\"clients\": {\"query\": %d, \"ingest\": %d, \"loop\": \"closed\", "
      "\"rounds\": %zu, \"segments\": %d}, \"setups\": %d}",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, std::thread::hardware_concurrency(), g_cpu,
      assess::SimdLevelName(assess::ActiveSimdLevel()), PERFBENCH_BUILD_TYPE,
      PERFBENCH_TRACING ? "true" : "false",
      PERFBENCH_FAILPOINTS ? "true" : "false", kScaleFactor,
      static_cast<long long>(assess::SsbFactCount(kScaleFactor)),
      static_cast<long long>(assess::SsbFactCount(kScaleFactor) / 2),
      kServerWorkers, static_cast<long long>(kMqoWindowUs), kMqoMaxBatch,
      static_cast<long long>(kCheckpointWalBytes), data_fs.c_str(),
      100.0 * Ratio(static_cast<double>(steal1.first - steal0.first),
                    static_cast<double>(steal1.second - steal0.second)),
      schedule.query_clients, schedule.has_ingest_client ? 1 : 0,
      schedule.rounds.size(), kSegments, kSetups);

  std::printf("fingerprint %s\n", fingerprint);
  std::printf(
      "schedule {\"digest\": \"%016llx\", \"statements\": %lld, "
      "\"result_rows\": %lld, \"ingest_batches\": %lld, \"ingest_rows\": %lld, "
      "\"cache_exact_hits\": %llu, \"cache_subsumption_hits\": %llu, "
      "\"cache_misses\": %llu, \"cache_evictions\": %llu, "
      "\"mqo_shared_scans\": %llu, \"mqo_queries_batched\": %llu, "
      "\"wal_appends\": %llu, \"checkpoints\": %llu}\n",
      static_cast<unsigned long long>(schedule.digest()),
      static_cast<long long>(statements),
      [&] {
        long long rows = 0;
        for (const ResultDigest& d : plain.digests) rows += d.rows;
        return rows;
      }(),
      static_cast<long long>(batches),
      static_cast<long long>(schedule.ingest_rows()),
      static_cast<unsigned long long>(cache1.exact_hits - cache0.exact_hits),
      static_cast<unsigned long long>(cache1.subsumption_hits -
                                      cache0.subsumption_hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(shared_scans),
      static_cast<unsigned long long>(batched),
      static_cast<unsigned long long>(appends),
      static_cast<unsigned long long>(checkpoints));
  PrintHistogram("client-observed latency", loop.latency_ms);
  PrintHistogram("CPU per statement, per wave", loop.cpu_ms);
  PrintMetrics("end_to_end", e2e);
  PrintMetrics("end_to_end", {error_rate});
  if (opt.trace) {
    PrintMetrics("per_layer", layers);
    const std::string path = (fs::path(kWorkdir) /
                              ("trace-" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".json"))
                                 .string();
    if (!WriteChromeTrace(path, traced.spans, fingerprint)) {
      problems.push_back("cannot write " + path);
    } else {
      std::printf("trace %s (%zu spans)\n", path.c_str(), traced.spans.size());
    }
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              MetricsJson(opt.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The deployment runs on one CPU: the one the process started on, which
  // the scheduler picked as a free one. Every thread created from here on
  // (server, MQO collector, scan pool) inherits the mask, and the scan pool
  // is sized to it. On a shared host this keeps every hand-off between the
  // load generator and the server's threads on one CPU, so no request pays
  // for waking another (virtual) CPU, whose cost depends on the neighbours.
  perfbench::g_cpu = ::sched_getcpu();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (perfbench::g_cpu >= 0) CPU_SET(perfbench::g_cpu, &cpus);
  if (perfbench::g_cpu < 0 ||
      ::sched_setaffinity(0, sizeof(cpus), &cpus) != 0) {
    std::fprintf(stderr, "%s: cannot pin to one CPU\n", argv[0]);
    return 1;
  }
  ::setenv("ASSESS_THREADS", "1", 1);
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload explore|dashboard|live_ingest "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(opt);
}
