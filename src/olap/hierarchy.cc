#include "olap/hierarchy.h"

#include <functional>
#include <limits>

namespace assess {

int Hierarchy::AddLevel(std::string level_name) {
  int index = static_cast<int>(levels_.size());
  level_index_.emplace(level_name, index);
  levels_.push_back(Level{std::move(level_name), {}, {}, {}, {}, {}});
  return index;
}

Result<int> Hierarchy::LevelIndex(std::string_view level_name) const {
  auto it = level_index_.find(std::string(level_name));
  if (it == level_index_.end()) {
    return Status::NotFound("no level '" + std::string(level_name) +
                            "' in hierarchy '" + name_ + "'");
  }
  return it->second;
}

bool Hierarchy::HasLevel(std::string_view level_name) const {
  return level_index_.count(std::string(level_name)) > 0;
}

uint32_t Hierarchy::HashName(std::string_view member) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(member));
}

MemberId Hierarchy::FindMember(const Level& l, std::string_view member,
                               uint32_t hash) {
  if (l.slots.empty()) return kInvalidMember;
  const size_t mask = l.slots.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const MemberId id = l.slots[slot];
    if (id == kInvalidMember) return kInvalidMember;
    if (l.hashes[id] == hash && l.members[id] == member) return id;
  }
}

void Hierarchy::GrowIndex(Level* l, int64_t count) {
  const size_t needed = static_cast<size_t>(count) * 2;
  if (needed <= l->slots.size()) return;
  size_t capacity = 16;
  while (capacity < needed) capacity *= 2;
  l->slots.assign(capacity, kInvalidMember);
  for (size_t id = 0; id < l->members.size(); ++id) {
    PlaceInIndex(l, static_cast<MemberId>(id));
  }
}

void Hierarchy::PlaceInIndex(Level* l, MemberId id) {
  const size_t mask = l->slots.size() - 1;
  size_t slot = l->hashes[id] & mask;
  while (l->slots[slot] != kInvalidMember) slot = (slot + 1) & mask;
  l->slots[slot] = id;
}

void Hierarchy::ReserveMembers(int level, int64_t count) {
  Level& l = levels_[level];
  l.members.reserve(static_cast<size_t>(count));
  l.hashes.reserve(static_cast<size_t>(count));
  l.parent.reserve(static_cast<size_t>(count));
  GrowIndex(&l, count);
}

MemberId Hierarchy::AddMember(int level, std::string_view member) {
  Level& l = levels_[level];
  const uint32_t hash = HashName(member);
  MemberId id = FindMember(l, member, hash);
  if (id != kInvalidMember) return id;
  id = static_cast<MemberId>(l.members.size());
  GrowIndex(&l, static_cast<int64_t>(id) + 1);
  l.members.emplace_back(member);
  l.hashes.push_back(hash);
  l.parent.push_back(kInvalidMember);
  PlaceInIndex(&l, id);
  return id;
}

Result<MemberId> Hierarchy::MemberIdOf(int level,
                                       std::string_view member) const {
  const Level& l = levels_[level];
  const MemberId id = FindMember(l, member, HashName(member));
  if (id == kInvalidMember) {
    return Status::NotFound("no member '" + std::string(member) +
                            "' in level '" + l.name + "' of hierarchy '" +
                            name_ + "'");
  }
  return id;
}

void Hierarchy::SetParent(int fine_level, MemberId child, MemberId parent) {
  levels_[fine_level].parent[child] = parent;
}

MemberId Hierarchy::RollUpMember(int from_level, MemberId member,
                                 int to_level) const {
  MemberId current = member;
  for (int l = from_level; l < to_level; ++l) {
    if (current == kInvalidMember) return kInvalidMember;
    current = levels_[l].parent[current];
  }
  return current;
}

void Hierarchy::SetProperty(int level, std::string_view property,
                            std::string_view member, double value) {
  Level& l = levels_[level];
  MemberId id = AddMember(level, member);
  auto [it, inserted] = l.properties.try_emplace(std::string(property));
  std::vector<double>& column = it->second;
  if (column.size() < l.members.size()) {
    column.resize(l.members.size(),
                  std::numeric_limits<double>::quiet_NaN());
  }
  column[id] = value;
}

bool Hierarchy::HasProperty(int level, std::string_view property) const {
  return levels_[level].properties.count(std::string(property)) > 0;
}

Result<const std::vector<double>*> Hierarchy::PropertyColumn(
    int level, std::string_view property) const {
  const Level& l = levels_[level];
  auto it = l.properties.find(std::string(property));
  if (it == l.properties.end()) {
    return Status::NotFound("no property '" + std::string(property) +
                            "' on level '" + l.name + "' of hierarchy '" +
                            name_ + "'");
  }
  // Members added after the last SetProperty call lack slots; the column is
  // lazily right-sized here (const because values are unchanged: nulls).
  if (it->second.size() < l.members.size()) {
    const_cast<std::vector<double>&>(it->second)
        .resize(l.members.size(), std::numeric_limits<double>::quiet_NaN());
  }
  return &it->second;
}

Status Hierarchy::Validate() const {
  for (size_t l = 0; l + 1 < levels_.size(); ++l) {
    const Level& level = levels_[l];
    for (size_t m = 0; m < level.members.size(); ++m) {
      if (level.parent[m] == kInvalidMember) {
        return Status::Internal("member '" + level.members[m] + "' of level '" +
                                level.name + "' in hierarchy '" + name_ +
                                "' has no parent");
      }
    }
  }
  return Status::OK();
}

}  // namespace assess
