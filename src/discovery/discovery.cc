#include "discovery/discovery.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_map>

#include "partition/canonical.h"
#include "partition/dense.h"
#include "util/union_find.h"

namespace psem {

namespace {

// Candidate lhs sets are column-index bitmasks (arity <= 30 or so; the
// levelwise bound keeps this tame).
using ColMask = uint32_t;

// Dense column PLIs: column[c] groups row indices by the value in c.
std::vector<DensePartition> DenseColumns(const Relation& r, DenseOps* ops) {
  std::vector<DensePartition> column(r.arity());
  std::vector<uint32_t> values(r.size());
  for (std::size_t c = 0; c < r.arity(); ++c) {
    for (uint32_t i = 0; i < r.size(); ++i) values[i] = r.row(i)[c];
    ops->GroupByValues(values, &column[c]);
  }
  return column;
}

}  // namespace

Partition ColumnPartition(const Relation& r, std::size_t column) {
  std::vector<Elem> population(r.size());
  std::vector<uint32_t> values(r.size());
  for (uint32_t i = 0; i < r.size(); ++i) {
    population[i] = i;
    values[i] = r.row(i)[column];
  }
  DenseOps ops;
  DensePartition grouped;
  ops.GroupByValues(values, &grouped);
  return Partition::FromLabels(std::move(population), grouped.labels);
}

Result<std::vector<Fd>> DiscoverFds(const Database& db, const Relation& r,
                                    const FdDiscoveryOptions& options) {
  const std::size_t arity = r.arity();
  if (arity > 24) {
    return Status::InvalidArgument("relation too wide for lattice search");
  }
  if (r.empty()) {
    return Status::FailedPrecondition(
        "FD discovery over an empty relation is vacuous");
  }
  DenseOps ops;
  std::vector<DensePartition> column = DenseColumns(r, &ops);

  // Stripped PLI of a column set, cached by mask while the search can
  // still reuse it (see the loop below): singleton blocks never
  // participate in a refinement violation, so each intersection touches
  // only the surviving clustered rows (the TANE recipe).
  std::unordered_map<ColMask, StrippedPartition> set_pli;
  std::function<const StrippedPartition&(ColMask)> pli_of =
      [&](ColMask mask) -> const StrippedPartition& {
    auto it = set_pli.find(mask);
    if (it != set_pli.end()) return it->second;
    // Split off the lowest column and recurse.
    int low = __builtin_ctz(mask);
    ColMask rest = mask & (mask - 1);
    StrippedPartition sp;
    if (rest == 0) {
      ops.Strip(column[low], &sp);
    } else {
      assert(set_pli.contains(rest));  // see the levelwise loop below
      ops.StrippedProduct(pli_of(rest), column[low], &sp);
    }
    return set_pli.emplace(mask, std::move(sp)).first->second;
  };

  // r |= X -> A iff pi_X refines pi_A: every cluster of the X-PLI stays
  // inside one block of pi_A.
  auto holds = [&](ColMask x, std::size_t a) {
    return ops.StrippedRefines(pli_of(x), column[a]);
  };

  std::vector<Fd> out;
  const std::size_t n = db.universe().size();
  // For minimality pruning: for each rhs attr, the set of minimal lhs
  // masks found so far.
  std::vector<std::vector<ColMask>> minimal_lhs(arity);
  // Levelwise enumeration of lhs masks by popcount.
  std::vector<ColMask> masks;
  for (ColMask m = 1; m < (ColMask{1} << arity); ++m) {
    if (static_cast<std::size_t>(__builtin_popcount(m)) <=
        options.max_lhs_size) {
      masks.push_back(m);
    }
  }
  std::sort(masks.begin(), masks.end(), [](ColMask a, ColMask b) {
    int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
    return pa != pb ? pa < pb : a < b;
  });
  // A mask x of popcount k builds on the set of its popcount k-1 `rest`
  // only, and that set is always cached by then: x reaches pli_of only
  // through holds(x, a) with a not dominated at x, and then a was not
  // dominated at rest either (minimal_lhs only grows, and what dominates
  // rest dominates x), so holds(rest, a) ran one level earlier. So the
  // levels below k-1 are dropped as the search moves up, and a top-level
  // set once its own mask is done: no later mask builds on it. Nothing
  // dropped is ever asked for again; pli_of would recompute it if it
  // were, so the output cannot change either way.
  const int top = static_cast<int>(std::min(options.max_lhs_size, arity));
  int level = 0;
  for (ColMask x : masks) {
    const int k = __builtin_popcount(x);
    if (k != level) {
      level = k;
      std::erase_if(set_pli, [k](const auto& entry) {
        return __builtin_popcount(entry.first) <= k - 2;
      });
    }
    for (std::size_t a = 0; a < arity; ++a) {
      if (x & (ColMask{1} << a)) continue;  // trivial
      // Minimality: skip if a subset lhs already determines a.
      bool dominated = false;
      for (ColMask seen : minimal_lhs[a]) {
        if ((seen & x) == seen) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      if (!holds(x, a)) continue;
      minimal_lhs[a].push_back(x);
      AttrSet lhs(n), rhs(n);
      for (std::size_t c = 0; c < arity; ++c) {
        if (x & (ColMask{1} << c)) lhs.Set(r.schema().attrs[c]);
      }
      rhs.Set(r.schema().attrs[a]);
      out.push_back(Fd{std::move(lhs), std::move(rhs)});
      if (out.size() >= options.max_results) return out;
    }
    if (k == top) set_pli.erase(x);
  }
  return out;
}

std::string PdPattern::ToString(const Universe& universe) const {
  const std::string& cn = universe.NameOf(c);
  const std::string& an = universe.NameOf(a);
  const std::string& bn = universe.NameOf(b);
  switch (kind) {
    case Kind::kProduct:
      return cn + " = " + an + "*" + bn;
    case Kind::kSum:
      return cn + " = " + an + "+" + bn;
    case Kind::kSumUpper:
      return cn + " <= " + an + "+" + bn;
  }
  return "?";
}

Result<std::vector<PdPattern>> DiscoverPdPatterns(const Database& db,
                                                  const Relation& r) {
  const std::size_t arity = r.arity();
  if (r.empty()) {
    return Status::FailedPrecondition(
        "PD discovery over an empty relation is vacuous");
  }
  DenseOps ops;
  std::vector<DensePartition> column = DenseColumns(r, &ops);

  std::vector<PdPattern> out;
  DensePartition prod, sum;
  for (std::size_t a = 0; a < arity; ++a) {
    for (std::size_t b = a + 1; b < arity; ++b) {
      ops.Product(column[a], column[b], &prod);
      ops.Sum(column[a], column[b], &sum);
      for (std::size_t c = 0; c < arity; ++c) {
        if (c == a || c == b) continue;
        RelAttrId ca = r.schema().attrs[a];
        RelAttrId cb = r.schema().attrs[b];
        RelAttrId cc = r.schema().attrs[c];
        if (column[c] == prod) {
          out.push_back(PdPattern{PdPattern::Kind::kProduct, cc, ca, cb});
        }
        if (column[c] == sum) {
          out.push_back(PdPattern{PdPattern::Kind::kSum, cc, ca, cb});
        } else if (ops.Refines(column[c], sum)) {
          out.push_back(PdPattern{PdPattern::Kind::kSumUpper, cc, ca, cb});
        }
      }
    }
  }
  return out;
}

}  // namespace psem
