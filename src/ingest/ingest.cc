#include "ingest/ingest.h"

#include <cstring>

namespace assess {

namespace {

constexpr int kStatsFields = 9;

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string_view IngestFormatToString(IngestFormat format) {
  switch (format) {
    case IngestFormat::kCsv:
      return "csv";
    case IngestFormat::kJsonl:
      return "jsonl";
  }
  return "unknown";
}

IngestFormat IngestFormatFromPath(std::string_view path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  if (ends_with(".jsonl") || ends_with(".ndjson")) return IngestFormat::kJsonl;
  return IngestFormat::kCsv;
}

std::string IngestStats::Serialize() const {
  std::string out;
  out.reserve(kStatsFields * 8);
  AppendU64(rows_ingested, &out);
  AppendU64(rows_rejected, &out);
  AppendU64(batches, &out);
  AppendU64(new_members, &out);
  AppendU64(epoch, &out);
  AppendU64(mv_incremental_updates, &out);
  AppendU64(mv_full_rebuilds, &out);
  AppendU64(cache_invalidations, &out);
  AppendU64(repacks, &out);
  return out;
}

Result<IngestStats> IngestStats::Deserialize(std::string_view payload) {
  if (payload.size() < kStatsFields * 8) {
    return Status::CorruptFrame("ingest stats payload truncated");
  }
  const char* p = payload.data();
  IngestStats stats;
  stats.rows_ingested = ReadU64(p + 0);
  stats.rows_rejected = ReadU64(p + 8);
  stats.batches = ReadU64(p + 16);
  stats.new_members = ReadU64(p + 24);
  stats.epoch = ReadU64(p + 32);
  stats.mv_incremental_updates = ReadU64(p + 40);
  stats.mv_full_rebuilds = ReadU64(p + 48);
  stats.cache_invalidations = ReadU64(p + 56);
  stats.repacks = ReadU64(p + 64);
  return stats;
}

std::string IngestStats::ToString() const {
  std::string out;
  out += "ingested " + std::to_string(rows_ingested) + " rows in " +
         std::to_string(batches) + " batches (epoch " +
         std::to_string(epoch) + ")";
  if (rows_rejected > 0) {
    out += ", rejected " + std::to_string(rows_rejected);
  }
  if (new_members > 0) {
    out += ", " + std::to_string(new_members) + " new members";
  }
  out += "; views: " + std::to_string(mv_incremental_updates) +
         " incremental / " + std::to_string(mv_full_rebuilds) + " rebuilt";
  out += "; cache: " + std::to_string(cache_invalidations) + " swept";
  return out;
}

}  // namespace assess
