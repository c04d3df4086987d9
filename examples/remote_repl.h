// Shared remote REPL loop for assess_client and `assess_cli --connect`:
// reads assess statements from stdin, executes them on a remote assessd,
// and prints results exactly like the in-process shell. Meta commands:
//   \csv <stmt>     execute and print the result as CSV
//   \sql <stmt>     show the SQL the server's plan pushed to the engine
//   \analyze <stmt> EXPLAIN ANALYZE on the server (span tree + phases)
//   \ingest <file> [cube]  stream a CSV/JSONL file into a cube on the
//                   server (needs assessd --ingest; cube defaults to SALES)
//   \stats          server statistics (load, latency percentiles, cache)
//   \cache          just the shared result cache counters
//   \metrics        Prometheus-style metrics exposition
//   \ping           liveness probe
//   \help, \quit
//
// Plan forcing and completion (\plan, \rank, \suggest, ...) are in-process
// features: the server always picks the best feasible plan.

#ifndef ASSESS_EXAMPLES_REMOTE_REPL_H_
#define ASSESS_EXAMPLES_REMOTE_REPL_H_

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "client/assess_client.h"
#include "common/str_util.h"

namespace assess_examples {

/// Reads a whole file; false (with a message on stdout) when unreadable.
inline bool ReadFileForIngest(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cout << "cannot open '" << path << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Splits "\ingest <file> [cube]" arguments; false on a missing file arg.
inline bool ParseIngestArgs(std::string_view rest, std::string* path,
                            std::string* cube) {
  size_t space = rest.find_first_of(" \t");
  if (space == std::string_view::npos) {
    *path = std::string(rest);
  } else {
    *path = std::string(rest.substr(0, space));
    std::string_view tail = assess::Trim(rest.substr(space));
    if (!tail.empty()) *cube = std::string(tail);
  }
  return !path->empty();
}

/// Turns the statuses a remote call can fail with into a message that tells
/// the user what to *do*, not just what went wrong. Falls back to the plain
/// status text for ordinary query errors (parse errors etc.).
inline std::string DescribeRemoteError(const assess::Status& status) {
  switch (status.code()) {
    case assess::StatusCode::kUnavailable:
      if (status.message().find("overloaded") != std::string::npos) {
        return status.ToString() +
               "\nThe server is saturated; retry in a moment or raise its "
               "--queue/--workers.";
      }
      if (status.message().find("shutting down") != std::string::npos) {
        return status.ToString() +
               "\nThe server is draining for shutdown; reconnect once it is "
               "restarted.";
      }
      return status.ToString() +
             "\nThe connection is gone; check that assessd is still running "
             "and reachable, then reconnect (or pass --retry N to retry "
             "automatically).";
    case assess::StatusCode::kTimeout:
      return status.ToString() +
             "\nThe request may still have executed. Retrying is safe — "
             "a query only reads, and a retried ingest replays its "
             "receipt.";
    case assess::StatusCode::kCorruptFrame:
      return status.ToString() +
             "\nA frame failed its integrity check; the link is unreliable. "
             "Retrying on a fresh connection is safe.";
    case assess::StatusCode::kFrameTooLarge:
      return status.ToString() +
             "\nNarrow the query (fewer group-by members) or raise "
             "--max-frame-mb on both ends.";
    default:
      return status.ToString();
  }
}

inline void PrintRemoteHelp() {
  std::cout <<
      R"(Type an assess statement, e.g.:
  with SALES by month assess storeSales labels quartiles
Meta commands: \csv <stmt>, \sql <stmt>, \analyze <stmt>, \stats, \cache,
               \metrics, \ping, \ingest <file> [cube], \help, \quit
)";
}

/// Runs the REPL until \quit or EOF. Returns 0, or 1 when the connection
/// died mid-session.
inline int RunRemoteRepl(assess::AssessClient& client) {
  std::string line;
  while (true) {
    std::cout << "assess> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string_view input = assess::Trim(line);
    if (input.empty()) continue;
    if (input[0] == '\\') {
      if (input == "\\quit" || input == "\\q") break;
      if (input == "\\help") {
        PrintRemoteHelp();
        continue;
      }
      if (input == "\\ping") {
        assess::Status st = client.Ping();
        std::cout << (st.ok() ? "pong" : DescribeRemoteError(st)) << "\n";
        if (!client.connected()) return 1;
        continue;
      }
      if (input == "\\stats" || input == "\\cache") {
        auto stats = client.Stats();
        if (!stats.ok()) {
          std::cout << DescribeRemoteError(stats.status()) << "\n";
          if (!client.connected()) return 1;
          continue;
        }
        if (input == "\\stats") {
          std::cout << stats->ToString() << "\n";
        } else {
          std::cout << "  lookups " << stats->cache_lookups << ", exact hits "
                    << stats->cache_exact_hits << ", subsumption hits "
                    << stats->cache_subsumption_hits << ", misses "
                    << stats->cache_misses << "\n  entries "
                    << stats->cache_entries << ", resident "
                    << stats->cache_bytes << " bytes\n";
        }
        continue;
      }
      if (input == "\\metrics") {
        auto metrics = client.Metrics();
        if (!metrics.ok()) {
          std::cout << DescribeRemoteError(metrics.status()) << "\n";
          if (!client.connected()) return 1;
          continue;
        }
        std::cout << *metrics;
        continue;
      }
      if (assess::StartsWith(input, "\\ingest")) {
        std::string path;
        std::string cube = "SALES";
        if (!ParseIngestArgs(assess::Trim(input.substr(7)), &path, &cube)) {
          std::cout << "usage: \\ingest <file> [cube]\n";
          continue;
        }
        std::string text;
        if (!ReadFileForIngest(path, &text)) continue;
        auto stats = client.Ingest(cube, text,
                                   assess::IngestFormatFromPath(path),
                                   /*auto_insert=*/true);
        if (!stats.ok()) {
          std::cout << DescribeRemoteError(stats.status()) << "\n";
          if (!client.connected()) return 1;
          continue;
        }
        std::cout << stats->ToString() << "\n";
        continue;
      }
      if (assess::StartsWith(input, "\\analyze")) {
        std::string_view stmt = assess::Trim(input.substr(8));
        auto text = client.ExplainAnalyze(stmt);
        if (!text.ok()) {
          std::cout << DescribeRemoteError(text.status()) << "\n";
          if (!client.connected()) return 1;
          continue;
        }
        std::cout << *text;
        continue;
      }
      if (assess::StartsWith(input, "\\csv") ||
          assess::StartsWith(input, "\\sql")) {
        bool csv = assess::StartsWith(input, "\\csv");
        std::string_view stmt = assess::Trim(input.substr(4));
        auto result = client.Query(stmt);
        if (!result.ok()) {
          std::cout << DescribeRemoteError(result.status()) << "\n";
          if (!client.connected()) return 1;
          continue;
        }
        if (csv) {
          result->WriteCsv(std::cout);
        } else {
          for (const std::string& sql : result->sql) {
            std::cout << sql << "\n\n";
          }
        }
        continue;
      }
      std::cout << "unknown meta command; \\help for help\n";
      continue;
    }
    auto result = client.Query(input);
    if (!result.ok()) {
      std::cout << DescribeRemoteError(result.status()) << "\n";
      if (!client.connected()) return 1;
      continue;
    }
    std::cout << result->ToString(40) << "("
              << assess::PlanKindToString(result->plan) << ","
              << result->timings.ToString() << ")\n";
  }
  return 0;
}

/// Parses "host:port" (or just "host", keeping `*port`). Returns false on a
/// malformed port.
inline bool ParseHostPort(std::string_view target, std::string* host,
                          uint16_t* port) {
  size_t colon = target.rfind(':');
  if (colon == std::string_view::npos) {
    *host = std::string(target);
    return !host->empty();
  }
  *host = std::string(target.substr(0, colon));
  std::string port_text(target.substr(colon + 1));
  if (host->empty() || port_text.empty()) return false;
  char* end = nullptr;
  long value = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value <= 0 || value > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace assess_examples

#endif  // ASSESS_EXAMPLES_REMOTE_REPL_H_
