#ifndef ASSESS_CACHE_QUERY_FINGERPRINT_H_
#define ASSESS_CACHE_QUERY_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "olap/cube_query.h"
#include "olap/group_by_set.h"

namespace assess {

/// \brief The canonical form of a CubeQuery used as the cache identity:
/// textually different but semantically equivalent queries (same cube, same
/// group-by set, same predicate conjunction, same measure set) canonicalize
/// to the same value.
///
/// Normalizations applied:
///  - IN member lists are sorted and deduplicated; a one-member IN
///    collapses to =; predicates are then sorted by PredicateKey and
///    duplicates dropped (conjunction is idempotent); each key is computed
///    once and kept, in the same order, in `predicate_keys`;
///  - measures are sorted and deduplicated (the cached cube carries named
///    columns, so any requested order can be projected back out);
///  - the alias is dropped (renaming happens client-side, after the get).
struct CanonicalQuery {
  std::string cube_name;
  GroupBySet group_by;
  std::vector<Predicate> predicates;
  /// PredicateKey of each predicate, parallel to `predicates` and sorted
  /// ascending: predicate-set containment is std::includes over two of
  /// these, with no key rebuilt per test.
  std::vector<std::string> predicate_keys;
  std::vector<int> measures;
  /// The fact-table epoch the result was computed at. Not part of query
  /// canonicalization (CanonicalizeQuery leaves it 0); the engine stamps it
  /// from the admission snapshot before keying the cache, so entries from
  /// different table contents never collide and never answer each other.
  uint64_t epoch = 0;
};

CanonicalQuery CanonicalizeQuery(const CubeQuery& query);

/// \brief Collision-free stable encoding of one canonical predicate
/// (member names are length-prefixed); doubles as the sort/equality key.
std::string PredicateKey(const Predicate& predicate);

/// \brief Collision-free stable string key for a canonical query: the
/// cache's exact-match identity.
std::string FingerprintKey(const CanonicalQuery& query);

}  // namespace assess

#endif  // ASSESS_CACHE_QUERY_FINGERPRINT_H_
