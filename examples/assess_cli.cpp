// Interactive assess shell: a small REPL over the SALES cube (or the SSB
// cube with --ssb), or — with --connect host:port — a remote REPL against a
// running assessd. Type an assess statement on one line; the shell prints
// the labeled result. Meta commands (local mode):
//   \plan NP|JOP|POP   force a plan (default: best feasible)
//   \explain <stmt>    show the logical plan instead of executing
//   \analyze <stmt>    EXPLAIN ANALYZE: execute under a trace and print the
//                      span tree + Figure 4 phase breakdown
//   \sql <stmt>        show the SQL the plan pushes to the engine
//   \suggest <partial> complete a partial statement (labels etc. optional)
//   \csv <stmt>        execute and print the result as CSV
//   \functions         list comparison functions
//   \labelings         list predeclared labeling functions
//   \ingest <file> [cube]  stream a CSV/JSONL file into a cube (members
//                      are auto-inserted; cube defaults to SALES or SSB)
//   \cache             result-cache counters (local session / remote server)
//   \stats             \cache plus server load & latency (remote; alias of
//                      \cache locally)
//   \quit
// Remote mode serves the subset in examples/remote_repl.h; plan forcing and
// suggestion stay in-process (the server always picks the best plan).
//
// One-shot mode: `assess_cli [--ssb] --explain-analyze "<stmt>"` runs the
// statement under EXPLAIN ANALYZE and exits (scriptable; needs a build with
// ASSESS_TRACING=ON).

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "assess/explain_analyze.h"
#include "assess/session.h"
#include "assess/suggest.h"
#include "client/assess_client.h"
#include "common/str_util.h"
#include "ingest/ingestor.h"
#include "remote_repl.h"
#include "ssb/sales_generator.h"
#include "ssb/ssb_generator.h"

namespace {

void PrintHelp() {
  std::cout <<
      R"(Type an assess statement, e.g.:
  with SALES by month assess storeSales labels quartiles
  with SALES for year = '1997', product = 'milk' by year, product
    assess quantity against 10000 using ratio(quantity, 10000)
    labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf): good}
Meta commands: \plan NP|JOP|POP, \explain <stmt>, \analyze <stmt>,
               \sql <stmt>, \csv <stmt>, \suggest <partial stmt>,
               \ingest <file> [cube],
               \functions, \labelings, \help, \quit
Monitoring:    \cache  result-cache counters (this session's engine)
               \stats  alias of \cache here; against a server
                       (--connect host:port) it adds load, in-flight/queued
                       requests and latency percentiles
)";
}

int RunRemote(const std::string& target, const assess::ClientOptions& options) {
  std::string host = "127.0.0.1";
  uint16_t port = assess::kDefaultPort;
  if (!assess_examples::ParseHostPort(target, &host, &port)) {
    std::cerr << "bad --connect target '" << target << "' (want host:port)\n";
    return 2;
  }
  auto client = assess::AssessClient::Connect(host, port, options);
  if (!client.ok()) {
    std::cerr << "cannot connect to assessd at " << host << ":" << port
              << ":\n"
              << assess_examples::DescribeRemoteError(client.status()) << "\n";
    return 1;
  }
  std::cout << "connected to assessd at " << host << ":" << port << "\n";
  assess_examples::PrintRemoteHelp();
  return assess_examples::RunRemoteRepl(*client);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--connect") {
    if (argc < 3) {
      std::cerr << "usage: " << argv[0]
                << " --connect host:port [--retry N] [--connect-timeout-ms N]\n";
      return 2;
    }
    assess::ClientOptions options;
    for (int i = 3; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--retry" && i + 1 < argc) {
        options.max_retries = std::atoi(argv[++i]);
      } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
        options.connect_timeout_ms = std::atoll(argv[++i]);
      } else {
        std::cerr << "unknown option '" << arg
                  << "' (want --retry N or --connect-timeout-ms N)\n";
        return 2;
      }
    }
    return RunRemote(argv[2], options);
  }
  bool use_ssb = false;
  std::optional<std::string> explain_analyze;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--ssb") {
      use_ssb = true;
    } else if (arg == "--explain-analyze") {
      if (i + 1 >= argc) {
        std::cerr << "usage: " << argv[0]
                  << " [--ssb] --explain-analyze \"<stmt>\"\n";
        return 2;
      }
      explain_analyze = argv[++i];
    }
  }
  std::unique_ptr<assess::StarDatabase> db;
  if (use_ssb) {
    assess::SsbConfig config;
    config.scale_factor = 0.01;
    auto built = assess::BuildSsbDatabase(config);
    if (!built.ok()) {
      std::cerr << built.status().ToString() << "\n";
      return 1;
    }
    db = std::move(built).value();
    std::cout << "SSB database ready (cubes: SSB, BUDGET).\n";
  } else {
    auto built = assess::BuildSalesDatabase(assess::SalesConfig{});
    if (!built.ok()) {
      std::cerr << built.status().ToString() << "\n";
      return 1;
    }
    db = std::move(built).value();
    std::cout << "SALES database ready.\n";
  }

  if (explain_analyze.has_value()) {
    assess::AssessSession session(db.get());
    auto text = assess::ExplainAnalyzeStatement(session, *explain_analyze);
    if (!text.ok()) {
      std::cerr << text.status().ToString() << "\n";
      return 1;
    }
    std::cout << *text;
    return 0;
  }
  PrintHelp();

  // One explicit shared cache, so \ingest sweeps the same entries the
  // session's queries populate (a private session cache would be invisible
  // to the ingester).
  assess::EngineOptions engine;
  engine.shared_cache =
      std::make_shared<assess::CubeResultCache>(engine.cache);
  assess::AssessSession session(db.get(), engine);
  std::optional<assess::PlanKind> forced_plan = std::nullopt;
  auto run = [&session, &forced_plan](std::string_view stmt) {
    if (forced_plan.has_value()) return session.Query(stmt, *forced_plan);
    return session.Query(stmt);
  };
  std::string line;
  while (true) {
    std::cout << "assess> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::string_view input = assess::Trim(line);
    if (input.empty()) continue;
    if (input[0] == '\\') {
      if (input == "\\quit" || input == "\\q") break;
      if (input == "\\help") {
        PrintHelp();
        continue;
      }
      if (input == "\\functions") {
        for (const std::string& name : session.functions()->Names()) {
          auto def = session.functions()->Find(name);
          std::cout << "  " << (*def)->doc << "\n";
        }
        continue;
      }
      if (input == "\\labelings") {
        for (const std::string& name : session.labelings()->Names()) {
          std::cout << "  " << name << "\n";
        }
        continue;
      }
      if (input == "\\cache" || input == "\\stats") {
        assess::CacheStats stats = session.cache_stats();
        std::cout << "  lookups " << stats.lookups << ", exact hits "
                  << stats.exact_hits << ", subsumption hits "
                  << stats.subsumption_hits << ", misses " << stats.misses
                  << "\n  insertions " << stats.insertions << ", evictions "
                  << stats.evictions << ", entries " << stats.entries
                  << ", resident " << stats.bytes_resident << " bytes\n";
        continue;
      }
      if (assess::StartsWith(input, "\\plan")) {
        std::string_view arg = assess::Trim(input.substr(5));
        if (arg.empty()) {
          forced_plan.reset();
          std::cout << "plan: best feasible\n";
          continue;
        }
        auto plan = assess::PlanKindFromString(arg);
        if (!plan.ok()) {
          std::cout << plan.status().ToString() << "\n";
          continue;
        }
        forced_plan = *plan;
        std::cout << "plan forced to " << assess::PlanKindToString(*plan)
                  << "\n";
        continue;
      }
      if (assess::StartsWith(input, "\\analyze")) {
        std::string_view stmt = assess::Trim(input.substr(8));
        auto text = assess::ExplainAnalyzeStatement(session, stmt, forced_plan);
        if (!text.ok()) {
          std::cout << text.status().ToString() << "\n";
          continue;
        }
        std::cout << *text;
        continue;
      }
      if (assess::StartsWith(input, "\\explain")) {
        std::string_view stmt = assess::Trim(input.substr(8));
        auto analyzed = session.Prepare(stmt);
        if (!analyzed.ok()) {
          std::cout << analyzed.status().ToString() << "\n";
          continue;
        }
        for (assess::PlanKind plan : assess::FeasiblePlans(*analyzed)) {
          std::cout << assess::ExplainPlan(*analyzed, plan);
        }
        continue;
      }
      if (assess::StartsWith(input, "\\suggest")) {
        std::string_view stmt = assess::Trim(input.substr(8));
        auto partial = assess::ParsePartialAssessStatement(stmt);
        if (!partial.ok()) {
          std::cout << partial.status().ToString() << "\n";
          continue;
        }
        auto suggestions = assess::SuggestCompletions(
            *partial, *db, *session.functions(), *session.labelings());
        if (!suggestions.ok()) {
          std::cout << suggestions.status().ToString() << "\n";
          continue;
        }
        if (suggestions->empty()) {
          std::cout << "no valid completions found\n";
          continue;
        }
        for (const assess::Suggestion& s : *suggestions) {
          std::cout << "  [" << s.rationale << "]\n    "
                    << s.statement.ToString() << "\n";
        }
        continue;
      }
      if (assess::StartsWith(input, "\\ingest")) {
        std::string path;
        std::string cube = use_ssb ? "SSB" : "SALES";
        if (!assess_examples::ParseIngestArgs(assess::Trim(input.substr(7)),
                                              &path, &cube)) {
          std::cout << "usage: \\ingest <file> [cube]\n";
          continue;
        }
        assess::IngestOptions opts;
        opts.format = assess::IngestFormatFromPath(path);
        opts.auto_insert_members = true;
        assess::Ingestor ingestor(db.get(), engine.shared_cache, opts);
        auto stats = ingestor.IngestFile(cube, path);
        if (!stats.ok()) {
          std::cout << stats.status().ToString() << "\n";
          continue;
        }
        std::cout << stats->ToString() << "\n";
        continue;
      }
      if (assess::StartsWith(input, "\\csv")) {
        std::string_view stmt = assess::Trim(input.substr(4));
        auto result = run(stmt);
        if (!result.ok()) {
          std::cout << result.status().ToString() << "\n";
          continue;
        }
        result->WriteCsv(std::cout);
        continue;
      }
      if (assess::StartsWith(input, "\\sql")) {
        std::string_view stmt = assess::Trim(input.substr(4));
        auto result = run(stmt);
        if (!result.ok()) {
          std::cout << result.status().ToString() << "\n";
          continue;
        }
        for (const std::string& sql : result->sql) {
          std::cout << sql << "\n\n";
        }
        continue;
      }
      std::cout << "unknown meta command; \\help for help\n";
      continue;
    }
    auto result = run(input);
    if (!result.ok()) {
      std::cout << result.status().ToString() << "\n";
      continue;
    }
    std::cout << result->ToString(40) << "("
              << assess::PlanKindToString(result->plan) << ","
              << result->timings.ToString() << ")\n";
  }
  return 0;
}
