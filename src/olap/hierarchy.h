#ifndef ASSESS_OLAP_HIERARCHY_H_
#define ASSESS_OLAP_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace assess {

/// \brief Dictionary-encoded member identifier within one level's domain.
using MemberId = int32_t;
inline constexpr MemberId kInvalidMember = -1;

/// \brief A linear hierarchy h = (L, ⪰, ≥) per Definition 2.1 of the paper.
///
/// Levels are stored finest-first: level 0 is the top of the roll-up order
/// (e.g. `date`), the last level the coarsest (e.g. `year`). Each level has
/// a dictionary of members (Dom(l)): names in id order, found by name
/// through a flat open-addressing index of ids that keeps no second copy of
/// any name and takes string_view keys. The part-of partial order ≥ is
/// stored as one parent array per adjacent level pair, so that every member
/// of a finer level maps to exactly one member of each coarser level.
///
/// Hierarchies are built once (AddLevel / AddMember / linking) and then used
/// immutably by the query engine; they are shared between cubes via
/// shared_ptr in CubeSchema.
class Hierarchy {
 public:
  explicit Hierarchy(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// \brief Marks this as the temporal hierarchy (required by past
  /// benchmarks, which roll the time level back over its member order).
  /// Member names of temporal levels must sort chronologically (ISO dates).
  void set_temporal(bool temporal) { temporal_ = temporal; }
  bool temporal() const { return temporal_; }

  /// \brief Appends a level coarser than all existing ones. Returns its
  /// index. Level names must be unique within the hierarchy.
  int AddLevel(std::string level_name);

  int level_count() const { return static_cast<int>(levels_.size()); }
  const std::string& level_name(int level) const {
    return levels_[level].name;
  }

  /// \brief Index of `level_name`, or error when unknown.
  Result<int> LevelIndex(std::string_view level_name) const;
  bool HasLevel(std::string_view level_name) const;

  /// \brief Number of members in Dom(level).
  int32_t LevelCardinality(int level) const {
    return static_cast<int32_t>(levels_[level].members.size());
  }

  /// \brief Interns `member` in Dom(level), returning its id (idempotent).
  MemberId AddMember(int level, std::string_view member);

  /// \brief Pre-sizes Dom(level) for `count` members in total, so a bulk
  /// build (e.g. a decoded wire dictionary) grows nothing while it fills.
  void ReserveMembers(int level, int64_t count);

  /// \brief Id of `member` in Dom(level), or error when unknown.
  Result<MemberId> MemberIdOf(int level, std::string_view member) const;

  const std::string& MemberName(int level, MemberId id) const {
    return levels_[level].members[id];
  }

  /// \brief Declares child ≥ parent between adjacent levels
  /// (`fine_level` and `fine_level + 1`). Overwrites any previous parent.
  void SetParent(int fine_level, MemberId child, MemberId parent);

  /// \brief rup: rolls `member` at `from_level` up to `to_level`
  /// (from_level <= to_level in index order, i.e. from finer to coarser).
  /// Returns kInvalidMember when a link is missing.
  MemberId RollUpMember(int from_level, MemberId member, int to_level) const;

  /// \brief Validates that every member of every non-coarsest level has a
  /// parent (the "exactly one member u'" condition of Definition 2.1).
  Status Validate() const;

  // -- Descriptive properties (Section 8 future work) --------------------
  //
  // A property attaches a numeric value to every member of a level (e.g.
  // the population of a country), enabling statements like per-capita
  // comparisons via property(country, population) in using clauses.
  // Unset members hold the null measure value.

  /// \brief Sets `property` of `member` at `level` (defining the property
  /// on first use).
  void SetProperty(int level, std::string_view property,
                   std::string_view member, double value);

  bool HasProperty(int level, std::string_view property) const;

  /// \brief Per-member values of `property` at `level`, indexed by member
  /// id (null for unset members). Errors when the property is unknown.
  Result<const std::vector<double>*> PropertyColumn(
      int level, std::string_view property) const;

 private:
  struct Level {
    std::string name;
    std::vector<std::string> members;
    // Member lookup by name: an open-addressing table (linear probing,
    // power-of-two size, load <= 1/2) of member ids, kInvalidMember marking
    // an empty slot. hashes[m] caches the hash of members[m], so probes
    // compare a hash before any string and growth never rehashes a name.
    // Keys live only in `members`; lookups take a string_view.
    std::vector<uint32_t> hashes;
    std::vector<MemberId> slots;
    // parent[m] = id at the next coarser level; empty for the coarsest level.
    std::vector<MemberId> parent;
    // property name -> per-member values (null for unset members).
    std::unordered_map<std::string, std::vector<double>> properties;
  };

  static uint32_t HashName(std::string_view member);
  /// Id of `member` in `l`, or kInvalidMember; `hash` is HashName(member).
  static MemberId FindMember(const Level& l, std::string_view member,
                             uint32_t hash);
  /// Rebuilds `l.slots` with room for `count` members at load <= 1/2.
  static void GrowIndex(Level* l, int64_t count);
  /// Puts member `id` (already in members/hashes) in the first free slot.
  static void PlaceInIndex(Level* l, MemberId id);

  std::string name_;
  bool temporal_ = false;
  std::vector<Level> levels_;
  std::unordered_map<std::string, int> level_index_;
};

}  // namespace assess

#endif  // ASSESS_OLAP_HIERARCHY_H_
