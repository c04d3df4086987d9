#include "cache/query_fingerprint.h"

#include <algorithm>
#include <utility>

namespace assess {

namespace {

void AppendLengthPrefixed(std::string_view s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

}  // namespace

std::string PredicateKey(const Predicate& predicate) {
  std::string key;
  key.push_back('p');
  key.append(std::to_string(predicate.hierarchy));
  key.push_back('.');
  key.append(std::to_string(predicate.level));
  key.push_back('.');
  key.append(std::to_string(static_cast<int>(predicate.op)));
  key.push_back('[');
  for (const std::string& m : predicate.members) AppendLengthPrefixed(m, &key);
  key.push_back(']');
  return key;
}

CanonicalQuery CanonicalizeQuery(const CubeQuery& query) {
  CanonicalQuery canon;
  canon.cube_name = query.cube_name;
  canon.group_by = query.group_by;

  // Normalize each predicate, key it once, then sort and deduplicate by key.
  std::vector<std::pair<std::string, Predicate>> keyed;
  keyed.reserve(query.predicates.size());
  for (Predicate p : query.predicates) {
    // IN member order is immaterial; BETWEEN bounds are positional.
    if (p.op == PredicateOp::kIn) {
      std::sort(p.members.begin(), p.members.end());
      p.members.erase(std::unique(p.members.begin(), p.members.end()),
                      p.members.end());
      if (p.members.size() == 1) p.op = PredicateOp::kEquals;
    }
    std::string key = PredicateKey(p);
    keyed.emplace_back(std::move(key), std::move(p));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              keyed.end());
  canon.predicates.reserve(keyed.size());
  canon.predicate_keys.reserve(keyed.size());
  for (auto& [key, p] : keyed) {
    canon.predicate_keys.push_back(std::move(key));
    canon.predicates.push_back(std::move(p));
  }

  canon.measures = query.measures;
  std::sort(canon.measures.begin(), canon.measures.end());
  canon.measures.erase(
      std::unique(canon.measures.begin(), canon.measures.end()),
      canon.measures.end());
  return canon;
}

std::string FingerprintKey(const CanonicalQuery& query) {
  std::string key;
  key.push_back('c');
  AppendLengthPrefixed(query.cube_name, &key);
  key.push_back('g');
  for (int h = 0; h < query.group_by.hierarchy_count(); ++h) {
    if (!query.group_by.HasHierarchy(h)) continue;
    key.append(std::to_string(h));
    key.push_back('.');
    key.append(std::to_string(query.group_by.LevelOf(h)));
    key.push_back(';');
  }
  for (const std::string& p : query.predicate_keys) key.append(p);
  key.push_back('m');
  for (int m : query.measures) {
    key.append(std::to_string(m));
    key.push_back(',');
  }
  key.push_back('e');
  key.append(std::to_string(query.epoch));
  return key;
}

}  // namespace assess
