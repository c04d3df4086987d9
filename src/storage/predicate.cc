#include "storage/predicate.h"

#include <algorithm>

namespace assess {

Result<std::vector<uint8_t>> BuildDomainFlags(const Hierarchy& hierarchy,
                                              const Predicate& predicate) {
  int level = predicate.level;
  int32_t card = hierarchy.LevelCardinality(level);
  std::vector<uint8_t> flags(card, 0);
  switch (predicate.op) {
    case PredicateOp::kEquals:
    case PredicateOp::kIn: {
      for (const std::string& member : predicate.members) {
        ASSESS_ASSIGN_OR_RETURN(MemberId id,
                                hierarchy.MemberIdOf(level, member));
        flags[id] = 1;
      }
      break;
    }
    case PredicateOp::kBetween: {
      if (predicate.members.size() != 2) {
        return Status::InvalidArgument("between predicate needs two bounds");
      }
      const std::string& lo = predicate.members[0];
      const std::string& hi = predicate.members[1];
      for (MemberId id = 0; id < card; ++id) {
        const std::string& name = hierarchy.MemberName(level, id);
        if (name >= lo && name <= hi) flags[id] = 1;
      }
      break;
    }
  }
  return flags;
}

Result<std::vector<uint8_t>> BuildConjunctionFlags(
    const Hierarchy& hierarchy, const std::vector<Predicate>& predicates,
    int eval_level) {
  int32_t card = hierarchy.LevelCardinality(eval_level);
  std::vector<uint8_t> flags(card, 1);
  for (const Predicate& p : predicates) {
    if (p.level < eval_level) {
      return Status::InvalidArgument(
          "predicate on level '" + hierarchy.level_name(p.level) +
          "' is finer than evaluation level '" +
          hierarchy.level_name(eval_level) + "'");
    }
    ASSESS_ASSIGN_OR_RETURN(std::vector<uint8_t> domain,
                            BuildDomainFlags(hierarchy, p));
    for (MemberId m = 0; m < card; ++m) {
      if (!flags[m]) continue;
      MemberId up = hierarchy.RollUpMember(eval_level, m, p.level);
      if (up == kInvalidMember || !domain[up]) flags[m] = 0;
    }
  }
  return flags;
}

Result<std::vector<uint8_t>> BuildDimensionRowFlags(
    const DimensionTable& dim, const std::vector<Predicate>& predicates) {
  const int64_t rows = dim.NumRows();
  std::vector<uint8_t> flags(rows, 1);
  uint8_t* out = flags.data();
  for (const Predicate& p : predicates) {
    ASSESS_ASSIGN_OR_RETURN(std::vector<uint8_t> domain,
                            BuildDomainFlags(dim.hierarchy(), p));
    const uint8_t* pass = domain.data();
    const MemberId* codes = dim.level_column(p.level).data();
    // An AND, not a branch: whether a row passes is unpredictable.
    for (int64_t r = 0; r < rows; ++r) out[r] &= pass[codes[r]];
  }
  return flags;
}

}  // namespace assess
