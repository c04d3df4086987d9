// assessd: serves a star database to remote assess sessions over TCP.
//
//   assessd [--sales | --ssb [--sf X]] [--host H] [--port P] [--workers N]
//           [--engine-threads N] [--queue N] [--timeout-ms N] [--cache-mb N]
//           [--max-frame-mb N] [--failpoints SPEC] [--failpoint-admin]
//           [--slow-query-ms N] [--trace-sample X]
//           [--http-port P] [--workload-profile on|off]
//           [--mqo-window-us N] [--mqo-max-batch N]
//           [--ingest] [--ingest-auto-insert] [--ingest-max-errors N]
//           [--data-dir DIR] [--fsync-mode none|batch|group]
//           [--checkpoint-wal-mb N]
//
// Loads the database once, then serves the framed protocol of
// server/protocol.h until SIGINT/SIGTERM, which trigger a graceful drain
// (in-flight and queued requests complete, new ones are rejected). Connect
// with `assess_client` or `assess_cli --connect host:port`.
//
// With --data-dir, the database lives in DIR across restarts: the first
// boot seals the generated database as checkpoint 1, every ingested batch
// is write-ahead-logged and fsynced before its receipt, and a restart
// recovers the newest checkpoint plus the WAL tail — so an acknowledged
// batch survives a crash (kill -9 included).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/failpoint.h"
#include "server/assessd.h"
#include "ssb/sales_generator.h"
#include "ssb/ssb_generator.h"
#include "wal/durability.h"

namespace {

// Signal handlers may only touch lock-free state; the main thread sleeps in
// sigwait-style polling on this flag and runs the actual drain.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--sales | --ssb] [--sf X] [--host H] [--port P]\n"
      "          [--workers N] [--engine-threads N] [--queue N]\n"
      "          [--timeout-ms N] [--cache-mb N] [--max-frame-mb N]\n"
      "          [--failpoints SPEC] [--failpoint-admin]\n"
      "          [--slow-query-ms N] [--trace-sample X]\n"
      "          [--http-port P] [--workload-profile on|off]\n"
      "          [--mqo-window-us N] [--mqo-max-batch N]\n"
      "          [--ingest] [--ingest-auto-insert] [--ingest-max-errors N]\n"
      "          [--data-dir DIR] [--fsync-mode none|batch|group]\n"
      "          [--checkpoint-wal-mb N]\n"
      "Serves the SALES (default) or SSB database on H:P (default "
      "127.0.0.1:%u).\n"
      "--engine-threads caps how many shared-pool workers one query's scan\n"
      "may occupy (default: the pool's own parallelism).\n"
      "--failpoints arms fault-injection points at startup (see\n"
      "common/failpoint.h for the spec grammar); --failpoint-admin lets\n"
      "clients arm them at runtime via the kFailpoint frame. Both need a\n"
      "build with ASSESS_FAILPOINTS=ON.\n"
      "--slow-query-ms dumps the span tree of queries at or over N ms to\n"
      "stderr (needs ASSESS_TRACING=ON); --trace-sample X traces only that\n"
      "fraction of queries (deterministic, default 1).\n"
      "--http-port serves the read-only observability endpoint on\n"
      "127.0.0.1:P (/metrics Prometheus exposition, /healthz drain-aware\n"
      "health, /workload top query fingerprints by total time, /traces\n"
      "recent span trees); 0 binds an ephemeral port. Off without the flag.\n"
      "--workload-profile=off disables the per-fingerprint workload\n"
      "profiler (kill switch; default on).\n"
      "--mqo-window-us holds admitted queries for N microseconds so\n"
      "concurrent statements sharing a cube, selection and fact epoch run\n"
      "as one fused shared scan (multi-query optimization). 0 (default)\n"
      "disables it; a few hundred µs batches concurrent clients without\n"
      "denting interactive latency. --mqo-max-batch flushes a window early\n"
      "once N queries are pending (default 16). Responses are bit-identical\n"
      "with MQO on or off.\n"
      "--ingest accepts kIngest row streams (the server is read-only\n"
      "without it); --ingest-auto-insert lets streamed rows add new\n"
      "dimension members; --ingest-max-errors tolerates N malformed rows\n"
      "per load before aborting it (default 0).\n"
      "--data-dir makes ingestion durable: batches are write-ahead-logged\n"
      "and fsynced before their receipts, and a restart recovers the\n"
      "newest checkpoint plus the WAL tail. --fsync-mode picks how commits\n"
      "sync (group = coalesced fsync, default; batch = one fsync per\n"
      "commit; none = no sync, crash may lose acknowledged batches).\n"
      "--checkpoint-wal-mb snapshots the database once that much WAL\n"
      "accumulated (default 128, 0 = only at shutdown).\n",
      argv0, assess::kDefaultPort);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_ssb = false;
  bool ingest_enabled = false;
  double scale_factor = 0.02;
  std::string data_dir;
  assess::DurabilityOptions durability_options;
  assess::ServerOptions options;
  options.port = assess::kDefaultPort;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--ssb") {
      use_ssb = true;
    } else if (arg == "--sales") {
      use_ssb = false;
    } else if (arg == "--sf") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      scale_factor = std::atof(v);
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.worker_threads = std::atoi(v);
    } else if (arg == "--engine-threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.engine.threads = std::atoi(v);
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_queue = std::atoi(v);
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.request_timeout_ms = std::atoll(v);
    } else if (arg == "--cache-mb") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.engine.cache.budget_bytes =
          static_cast<size_t>(std::atoll(v)) << 20;
    } else if (arg == "--max-frame-mb") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_frame_bytes = static_cast<size_t>(std::atoll(v)) << 20;
    } else if (arg == "--failpoints") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      assess::Status armed =
          assess::FailpointRegistry::Instance().ArmFromString(v);
      if (!armed.ok()) {
        std::fprintf(stderr, "assessd: --failpoints: %s\n",
                     armed.ToString().c_str());
        return 2;
      }
    } else if (arg == "--failpoint-admin") {
      options.allow_failpoint_admin = true;
    } else if (arg == "--slow-query-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.slow_query_ms = std::atoll(v);
    } else if (arg == "--trace-sample") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.trace_sample = std::atof(v);
    } else if (arg == "--http-port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.http_port = std::atoi(v);
    } else if (arg == "--workload-profile") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "on") == 0) {
        options.workload_profile = true;
      } else if (std::strcmp(v, "off") == 0) {
        options.workload_profile = false;
      } else {
        std::fprintf(stderr,
                     "assessd: --workload-profile wants 'on' or 'off'\n");
        return 2;
      }
    } else if (arg == "--mqo-window-us") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.mqo_window_us = std::atoll(v);
    } else if (arg == "--mqo-max-batch") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.mqo_max_batch = std::atoi(v);
    } else if (arg == "--ingest") {
      ingest_enabled = true;
    } else if (arg == "--ingest-auto-insert") {
      options.ingest.auto_insert_members = true;
    } else if (arg == "--ingest-max-errors") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.ingest.max_errors = std::atoll(v);
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      data_dir = v;
    } else if (arg == "--fsync-mode") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto mode = assess::ParseFsyncMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "assessd: --fsync-mode: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      durability_options.wal.fsync_mode = *mode;
    } else if (arg == "--checkpoint-wal-mb") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      durability_options.checkpoint_wal_bytes = std::atoll(v) << 20;
    } else {
      return Usage(argv[0]);
    }
  }

  auto bootstrap =
      [&]() -> assess::Result<std::unique_ptr<assess::StarDatabase>> {
    if (use_ssb) {
      assess::SsbConfig config;
      config.scale_factor = scale_factor;
      return assess::BuildSsbDatabase(config);
    }
    return assess::BuildSalesDatabase(assess::SalesConfig{});
  };

  std::unique_ptr<assess::StarDatabase> owned_db;
  std::unique_ptr<assess::DurabilityManager> durability;
  assess::StarDatabase* db = nullptr;
  if (!data_dir.empty()) {
    auto opened =
        assess::DurabilityManager::Open(data_dir, durability_options,
                                        bootstrap);
    if (!opened.ok()) {
      std::fprintf(stderr, "assessd: cannot open data dir '%s': %s\n",
                   data_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    durability = std::move(opened).value();
    db = durability->db();
    const assess::RecoveryInfo& rec = durability->recovery();
    if (rec.fresh_start) {
      std::fprintf(stderr,
                   "assessd: data dir '%s' initialized (checkpoint 1, "
                   "fsync %s)\n",
                   data_dir.c_str(),
                   std::string(FsyncModeToString(durability->fsync_mode()))
                       .c_str());
    } else {
      std::fprintf(stderr,
                   "assessd: recovered from '%s': checkpoint %llu (LSN "
                   "%llu), %llu WAL records replayed\n",
                   data_dir.c_str(),
                   static_cast<unsigned long long>(rec.checkpoint_seq),
                   static_cast<unsigned long long>(rec.checkpoint_lsn),
                   static_cast<unsigned long long>(rec.replayed_records));
      if (rec.tail_truncated) {
        std::fprintf(stderr, "assessd: warning: %s\n", rec.tail_note.c_str());
      }
    }
    options.durability = durability.get();
  } else {
    auto built = bootstrap();
    if (!built.ok()) {
      std::fprintf(stderr, "cannot build database: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    owned_db = std::move(built).value();
    db = owned_db.get();
  }
  std::fprintf(stderr, "assessd: %s database ready%s\n",
               use_ssb ? "SSB" : "SALES",
               data_dir.empty() ? "" : " (durable)");

  if (ingest_enabled) {
    options.mutable_db = db;
    std::fprintf(stderr, "assessd: ingest enabled%s\n",
                 options.ingest.auto_insert_members ? " (auto-insert)" : "");
  }

  assess::AssessServer server(db, options);
  assess::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "assessd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "assessd: listening on %s:%u\n", options.host.c_str(),
               server.port());
  if (options.http_port >= 0) {
    std::fprintf(stderr,
                 "assessd: observability http on 127.0.0.1:%u "
                 "(/metrics /healthz /workload /traces)\n",
                 server.http_port());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    // nanosleep returns early (EINTR) when a signal lands; re-check then.
    struct timespec tick = {1, 0};
    nanosleep(&tick, nullptr);
  }

  std::fprintf(stderr, "assessd: draining...\n");
  server.Stop();
  if (durability != nullptr) {
    // A shutdown checkpoint makes the next boot instant (nothing to
    // replay); a failure is harmless — the WAL still covers everything.
    assess::Status cp = durability->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "assessd: shutdown checkpoint failed: %s\n",
                   cp.ToString().c_str());
    }
  }
  std::fprintf(stderr, "assessd: stopped\n");
  return 0;
}
