// Pipeline benchmark for psem: the path a user takes from theory text (or
// a CSV relation) to a durable engine that survives a restart. One cycle:
//
//   setup       text -> ParsePd (fd_mined: CSV -> LoadCsvRelation ->
//               DiscoverFds -> FdsToFpds), DurablePdEngine::Recover on an
//               empty directory, cold Prepare
//   probe       text queries whose subexpressions are already in V
//   fresh       text queries that add subexpressions (incremental closure)
//   ingest      constraints added durably with AddPd (journal fsync per
//               add, automatic checkpoint every 32 adds)
//   verdict     the first verdict over the grown E
//   checkpoint  explicit Checkpoint of the closed engine
//   restart     a new arena recovers from the files alone; first verdict
//
// Cycles repeat for --seconds after one warm-up cycle. Each timing is the
// median over the measured cycles, so a slow stretch of the host hits
// every metric alike; operations shorter than a millisecond are timed in
// batches. Every verdict is checked against a computation made apart
// from the engine (see README.md). With --trace 1 the cycle calls the
// public parts of Recover, AddPd and Checkpoint itself, records a span
// around every library call and reports per-layer self times instead of
// the end-to-end metrics.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/csv.h"
#include "core/fd_theory.h"
#include "core/fpd.h"
#include "core/implication.h"
#include "core/snapshot.h"
#include "discovery/discovery.h"
#include "lattice/expr.h"
#include "relational/relation.h"
#include "util/durable_file.h"

namespace {

using psem::AttrSet;
using psem::Database;
using psem::DurabilityOptions;
using psem::DurablePdEngine;
using psem::ExecContext;
using psem::ExprArena;
using psem::Fd;
using psem::FdTheory;
using psem::Journal;
using psem::Pd;
using psem::PdImplicationEngine;
using psem::RecoveryTier;
using psem::Result;
using psem::Status;
using psem::StatusCode;
using psem::Universe;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const ExecContext& Ctx() { return ExecContext::Unbounded(); }

// The benchmark's own generator (splitmix64), so that inputs depend on
// --seed alone and not on the library's Rng.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed ^ 0x5eedba5e5eedba5eull) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  bool Coin() { return (Next() >> 17) & 1; }

 private:
  uint64_t state_;
};

// n distinct identifiers starting with `lead`, of seeded length and
// spelling, so that text sizes vary with the seed.
std::vector<std::string> UniqueNames(Gen& g, std::size_t n, char lead) {
  static const char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  while (out.size() < n) {
    std::string s(1, lead);
    const std::size_t len = 2 + g.Below(5);
    for (std::size_t i = 0; i < len; ++i) s += kAlnum[g.Below(36)];
    if (seen.insert(s).second) out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

// Counts operations and the ones that failed: a wrong verdict, a non-OK
// Status or a wrong recovery tier is one failed operation.
class Tally {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void CheckStatus(const Status& st, const char* what) {
    Check(st.ok(), st.ok() ? "" : std::string(what) + ": " + st.ToString());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Query {
  std::string text;
  bool expected = false;
};

void CheckVerdict(Tally& tally, const Result<bool>& got, const Query& q) {
  if (!got.ok()) {
    tally.Check(false, "query '" + q.text + "': " + got.status().ToString());
  } else if (*got != q.expected) {
    tally.Check(false, "query '" + q.text + "' expected " +
                           (q.expected ? "implied" : "not implied"));
  } else {
    tally.Check(true, "");
  }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// Everything one run feeds the engine, generated from --seed, with the
// expected verdict of every query.
struct Inputs {
  // Base theory, one PD per line. On fd_mined it is the rendering of the
  // seeded FPDs, which the restart reads back like a saved theory file.
  std::string theory;
  std::string csv;                 // fd_mined: the relation
  std::vector<Fd> mined;           // fd_mined: reference FDs of the CSV
  std::vector<bool> held;          // fd_mined: mined FD ingested, not seeded
  std::vector<Query> probes;       // subexpressions already in V
  // Sets of queries that add subexpressions to V; cycle i asks
  // fresh[i % fresh.size()], so a run averages over many random sets.
  std::vector<std::vector<Query>> fresh;
  std::vector<std::string> ingest; // constraint texts added durably
  Query after_ingest;              // first verdict over the grown E
  std::vector<Query> restart;      // [0] is timed, the rest checked after
  std::vector<Query> planted;      // fd_mined: planted FDs, all implied
};

// Chain and dense theories live over attributes A0 <= A1 <= ... . In a
// chain every lattice term equals the attribute of its min (product) or
// max (sum) index in every model, and the chain itself is a model, so
// E |= t <= t' iff val(t) <= val(t'): the valuation oracle.
struct Term {
  std::string text;
  int val = 0;
};

Term RandomTerm(Gen& g, const std::vector<std::string>& names, int hi,
                int leaves, std::vector<Term>* subterms) {
  if (leaves == 1) {
    const int i = static_cast<int>(g.Below(hi));
    return {names[i], i};
  }
  const int left = 1 + static_cast<int>(g.Below(leaves - 1));
  Term a = RandomTerm(g, names, hi, left, subterms);
  Term b = RandomTerm(g, names, hi, leaves - left, subterms);
  const bool product = g.Coin();
  Term t{"(" + a.text + (product ? "*" : "+") + b.text + ")",
         product ? std::min(a.val, b.val) : std::max(a.val, b.val)};
  if (subterms != nullptr) subterms->push_back(t);
  return t;
}

// `count` values in [0, range), one from each of `count` equal strata, in
// seeded order.
std::vector<int> Stratified(Gen& g, int count, int range) {
  std::vector<int> out(count);
  for (int i = 0; i < count; ++i) {
    out[i] = static_cast<int>(
        (static_cast<int64_t>(i) * range + g.Below(range)) / count);
  }
  for (int i = count - 1; i > 0; --i) std::swap(out[i], out[g.Below(i + 1)]);
  return out;
}

Query LeqQuery(const Term& a, const Term& b) {
  return {a.text + " <= " + b.text, a.val <= b.val};
}

struct ChainSize {
  int n, ingest, probes, fresh, fresh_sets, checks;
};

Inputs MakeChain(uint64_t seed, const ChainSize& z) {
  Gen g(seed);
  const int total = z.n + z.ingest;
  std::vector<std::string> names = UniqueNames(g, total, 'a');
  auto attr = [&](int i) { return Term{names[i], i}; };
  Inputs in;
  for (int i = 0; i + 1 < z.n; ++i) {
    in.theory += names[i] + " <= " + names[i + 1] + "\n";
  }
  for (int k = 0; k < z.probes; ++k) {
    in.probes.push_back(LeqQuery(attr(g.Below(z.n)), attr(g.Below(z.n))));
  }
  // Fresh queries (x*y) <= (u+v). The incremental closure of a new
  // vertex costs about in proportion to its valuation, more so for a
  // sum, so the products and the sums each take valuations spread evenly
  // over the chain: the cost then does not hinge on where a few random
  // terms land.
  auto pair = [&](int val, bool product) {
    // The partner leaf lies above val for a product, below it for a sum.
    const int other = product ? val + static_cast<int>(g.Below(z.n - val))
                              : static_cast<int>(g.Below(val + 1));
    const bool swap = g.Coin();
    const int l = swap ? other : val, r = swap ? val : other;
    return Term{"(" + names[l] + (product ? "*" : "+") + names[r] + ")", val};
  };
  for (int set = 0; set < z.fresh_sets; ++set) {
    const std::vector<int> products = Stratified(g, z.fresh, z.n);
    const std::vector<int> sums = Stratified(g, z.fresh, z.n);
    in.fresh.emplace_back();
    for (int k = 0; k < z.fresh; ++k) {
      in.fresh.back().push_back(
          LeqQuery(pair(products[k], true), pair(sums[k], false)));
    }
  }
  for (int k = 0; k < z.ingest; ++k) {
    in.ingest.push_back(names[z.n - 1 + k] + " <= " + names[z.n + k]);
  }
  const Term r = attr(g.Below(z.n));
  in.after_ingest = g.Coin() ? LeqQuery(r, attr(total - 1))
                             : LeqQuery(attr(total - 1), r);
  for (int k = 0; k < z.checks; ++k) {
    in.restart.push_back(LeqQuery(attr(g.Below(total)), attr(g.Below(total))));
  }
  in.restart.push_back(LeqQuery(RandomTerm(g, names, total, 3, nullptr),
                                RandomTerm(g, names, total, 3, nullptr)));
  return in;
}

struct DenseSize {
  int attrs, terms, ingest, probes, fresh, fresh_sets, checks;
};

// A chain over `attrs` attributes plus random terms t, each stated equal
// to A_val(t). The closure is a total preorder by valuation, about half
// of all pairs, so about half of all verdicts are "not implied".
Inputs MakeDense(uint64_t seed, const DenseSize& z) {
  Gen g(seed);
  std::vector<std::string> names = UniqueNames(g, z.attrs, 'b');
  Inputs in;
  for (int i = 0; i + 1 < z.attrs; ++i) {
    in.theory += names[i] + " <= " + names[i + 1] + "\n";
  }
  std::vector<Term> known;
  std::unordered_set<std::string> seen;
  auto remember = [&](const Term& t) {
    if (seen.insert(t.text).second) known.push_back(t);
  };
  for (int i = 0; i < z.attrs; ++i) remember({names[i], i});
  // A term whose text is not yet known; its new subterms are returned in
  // `subterms`.
  auto new_term = [&](int leaves, std::vector<Term>* subterms) {
    for (;;) {
      subterms->clear();
      Term t = RandomTerm(g, names, z.attrs, leaves, subterms);
      if (!seen.count(t.text)) return t;
    }
  };
  std::vector<Term> subterms;
  for (int k = 0; k < z.terms; ++k) {
    Term t = new_term(4, &subterms);
    in.theory += t.text + " = " + names[t.val] + "\n";
    for (const Term& s : subterms) remember(s);
  }
  for (int k = 0; k < z.probes; ++k) {
    in.probes.push_back(
        LeqQuery(known[g.Below(known.size())], known[g.Below(known.size())]));
  }
  // Fresh queries between new 6-leaf terms whose valuations are spread
  // evenly over the attributes, so their incremental cost does not hinge
  // on where a few random terms land.
  std::vector<Term> scratch;
  auto fresh_term = [&](int stratum) {
    for (;;) {
      Term t = new_term(6, &scratch);
      if (t.val * z.fresh / z.attrs == stratum) return t;
    }
  };
  for (int set = 0; set < z.fresh_sets; ++set) {
    const std::vector<int> lhs = Stratified(g, z.fresh, z.fresh);
    const std::vector<int> rhs = Stratified(g, z.fresh, z.fresh);
    in.fresh.emplace_back();
    for (int k = 0; k < z.fresh; ++k) {
      Term a = fresh_term(lhs[k]);
      in.fresh.back().push_back(LeqQuery(a, fresh_term(rhs[k])));
    }
  }
  std::vector<Term> added;
  for (int k = 0; k < z.ingest; ++k) {
    Term t = new_term(4, &subterms);
    in.ingest.push_back(t.text + " = " + names[t.val]);
    added.push_back(t);
    for (const Term& s : subterms) remember(s);
  }
  in.after_ingest = LeqQuery(added[g.Below(added.size())],
                             known[g.Below(known.size())]);
  for (int k = 0; k < z.checks; ++k) {
    in.restart.push_back(
        LeqQuery(known[g.Below(known.size())], known[g.Below(known.size())]));
  }
  return in;
}

// fd_mined: a relation over row identities r = 0..rows-1 in seeded order.
// A residue column holds r mod m, so a set of residue columns is a key
// iff the lcm of their moduli reaches `rows`, and column m' determines
// column m when m divides m'. A table column applies a fixed random map
// to one or two other columns. These plant the FDs listed in
// PlantedFds; the rest of the mined FDs follow from keys. The maps do
// not depend on the seed, so every seed mines the same FD structure; the
// seed picks row order, names, value spellings, the held-back FDs and
// the queries.
struct FdColumn {
  uint32_t mod;  // residue column when nonzero
  int a, b;      // table column over columns a (and b, when >= 0)
  uint32_t range;
};

const std::vector<FdColumn>& FdColumns() {
  static const std::vector<FdColumn> kColumns = {
      {331, -1, -1, 0}, {337, -1, -1, 0}, {347, -1, -1, 0}, {7, -1, -1, 0},
      {11, -1, -1, 0},  {13, -1, -1, 0},  {17, -1, -1, 0},  {19, -1, -1, 0},
      {77, -1, -1, 0},  {221, -1, -1, 0}, {0, 3, 7, 6},     {0, 0, -1, 9},
      {0, 10, 5, 4},    {23, -1, -1, 0},  {437, -1, -1, 0}, {0, 1, 13, 12},
  };
  return kColumns;
}

struct FdSize {
  int rows, columns, probes, fresh, fresh_sets, checks;
};

// Column values as small integers, column-major: values[c][row].
using Table = std::vector<std::vector<uint32_t>>;

Table MakeFdTable(Gen& g, const FdSize& z) {
  const auto& spec = FdColumns();
  Gen maps(0x7ab1e);
  std::vector<uint32_t> ident(z.rows);
  for (int i = 0; i < z.rows; ++i) ident[i] = i;
  for (int i = z.rows - 1; i > 0; --i) std::swap(ident[i], ident[g.Below(i + 1)]);
  Table values(z.columns, std::vector<uint32_t>(z.rows));
  std::vector<uint32_t> domain(z.columns);
  for (int c = 0; c < z.columns; ++c) {
    const FdColumn& col = spec[c];
    if (col.mod != 0) {
      domain[c] = col.mod;
      for (int i = 0; i < z.rows; ++i) values[c][i] = ident[i] % col.mod;
      continue;
    }
    const uint32_t db = col.b >= 0 ? domain[col.b] : 1;
    std::vector<uint32_t> map(static_cast<std::size_t>(domain[col.a]) * db);
    for (uint32_t& v : map) v = static_cast<uint32_t>(maps.Below(col.range));
    domain[c] = col.range;
    for (int i = 0; i < z.rows; ++i) {
      const uint32_t vb = col.b >= 0 ? values[col.b][i] : 0;
      values[c][i] = map[values[col.a][i] * db + vb];
    }
  }
  return values;
}

// FDs the generator plants, as column lists (lhs..., rhs).
std::vector<std::vector<int>> PlantedFds(int columns, int rows) {
  const auto& spec = FdColumns();
  std::vector<std::vector<int>> out;
  for (int c = 0; c < columns; ++c) {
    const FdColumn& col = spec[c];
    if (col.mod == 0) {
      out.push_back(col.b >= 0 ? std::vector<int>{col.a, col.b, c}
                               : std::vector<int>{col.a, c});
      continue;
    }
    for (int d = 0; d < columns; ++d) {
      if (d != c && spec[d].mod != 0 && spec[d].mod % col.mod == 0) {
        out.push_back({d, c});
      }
    }
  }
  // Two-column keys determine every other column.
  for (int a = 0; a < columns; ++a) {
    for (int b = a + 1; b < columns; ++b) {
      const uint64_t ma = spec[a].mod, mb = spec[b].mod;
      if (ma == 0 || mb == 0) continue;
      const uint64_t lcm = std::lcm(ma, mb);
      if (lcm < static_cast<uint64_t>(rows)) continue;
      for (int c = 0; c < columns; ++c) {
        if (c != a && c != b) out.push_back({a, b, c});
      }
    }
  }
  return out;
}

// The left-nested product of the columns in `mask`, in header order: the
// spelling FdToFpd gives the lhs of an FD.
std::string ProductText(const std::vector<std::string>& header,
                        const std::vector<int>& cols) {
  std::string s;
  for (int c : cols) s += (s.empty() ? "" : "*") + header[c];
  return s;
}

std::vector<int> Columns(const AttrSet& s) {
  std::vector<int> out;
  s.ForEach([&](std::size_t i) { out.push_back(static_cast<int>(i)); });
  return out;
}

int SingleColumn(const AttrSet& s) { return Columns(s).front(); }

// Checks every FD against the rows directly: rows that agree on X must
// agree on A. Keys are packed X-values (each value < 2^20, |X| <= 3).
bool FdHoldsByScan(const Table& values, const std::vector<int>& lhs, int rhs) {
  const std::size_t rows = values[0].size();
  std::size_t cap = 1;
  while (cap < 2 * rows) cap <<= 1;
  std::vector<uint64_t> keys(cap, UINT64_MAX);
  std::vector<uint32_t> seen(cap, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    uint64_t key = 0;
    for (int c : lhs) key = (key << 20) | values[c][i];
    std::size_t h = (key * 0x9e3779b97f4a7c15ull) >> 20 & (cap - 1);
    while (keys[h] != UINT64_MAX && keys[h] != key) h = (h + 1) & (cap - 1);
    if (keys[h] == UINT64_MAX) {
      keys[h] = key;
      seen[h] = values[rhs][i];
    } else if (seen[h] != values[rhs][i]) {
      return false;
    }
  }
  return true;
}

std::string CsvText(Gen& g, const Table& values,
                    const std::vector<std::string>& header) {
  std::vector<uint32_t> salt(header.size());
  for (uint32_t& s : salt) s = static_cast<uint32_t>(100000 + g.Below(800000));
  std::string csv;
  for (std::size_t c = 0; c < header.size(); ++c) {
    csv += (c ? "," : "") + header[c];
  }
  csv += "\n";
  for (std::size_t i = 0; i < values[0].size(); ++i) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (c) csv += ',';
      csv += std::to_string(values[c][i] + salt[c]);
    }
    csv += '\n';
  }
  return csv;
}

Inputs MakeFdMined(uint64_t seed, const FdSize& z, Tally& tally) {
  Gen g(seed);
  Inputs in;
  const std::vector<std::string> header = UniqueNames(g, z.columns, 'c');
  const Table values = MakeFdTable(g, z);
  in.csv = CsvText(g, values, header);

  // The reference mining fixes which FDs the queries are about; every
  // cycle mines again and must find the same list.
  Database db;
  auto rel = psem::LoadCsvRelation(in.csv, &db);
  tally.CheckStatus(rel.status(), "reference LoadCsvRelation");
  if (!rel.ok()) return in;
  auto mined = psem::DiscoverFds(db, db.relation(*rel));
  tally.CheckStatus(mined.status(), "reference DiscoverFds");
  if (!mined.ok()) return in;
  in.mined = *mined;
  for (const Fd& fd : in.mined) {
    const int rhs = SingleColumn(fd.rhs);
    tally.Check(FdHoldsByScan(values, Columns(fd.lhs), rhs),
                "mined FD fails the row scan: " + fd.ToString(db.universe()));
  }

  // Every eighth mined FD is held back for durable ingest. Mining lists
  // FDs by lhs size, so the held-back share is alike at every lhs size,
  // and the same FDs are held back whatever the seed: the catch-up work
  // after ingest does not hinge on the seed.
  in.held.assign(in.mined.size(), false);
  for (std::size_t i = 0; i < in.mined.size(); i += 8) in.held[i] = true;
  Universe universe;
  for (const std::string& h : header) universe.Intern(h);
  FdTheory base(&universe), all(&universe);
  std::vector<std::vector<int>> base_lhs;
  std::vector<Fd> held_fds;
  std::set<std::vector<int>> in_v;  // lhs prefixes: products already in V
  std::vector<bool> attr_in_v(z.columns, false);
  for (std::size_t i = 0; i < in.mined.size(); ++i) {
    const Fd& fd = in.mined[i];
    std::vector<int> lhs = Columns(fd.lhs);
    const int rhs = SingleColumn(fd.rhs);
    const std::string text = ProductText(header, lhs) + " <= " + header[rhs];
    all.Add(fd);
    if (in.held[i]) {
      in.ingest.push_back(text);
      held_fds.push_back(fd);
      continue;
    }
    base.Add(fd);
    in.theory += text + "\n";
    base_lhs.push_back(lhs);
    for (std::size_t k = 1; k <= lhs.size(); ++k) {
      in_v.insert(std::vector<int>(lhs.begin(), lhs.begin() + k));
    }
    for (int c : lhs) attr_in_v[c] = true;
    attr_in_v[rhs] = true;
  }
  std::vector<int> attrs_in_v;
  for (int c = 0; c < z.columns; ++c) {
    if (attr_in_v[c]) attrs_in_v.push_back(c);
  }
  // X <= A is implied iff A is in the FD closure of X (Theorem 3 with
  // Beeri-Bernstein closure, made apart from the engine).
  auto query = [&](const FdTheory& theory, const std::vector<int>& lhs,
                   int rhs) {
    AttrSet x = universe.EmptySet();
    for (int c : lhs) x.Set(c);
    return Query{ProductText(header, lhs) + " <= " + header[rhs],
                 theory.Closure(x).Test(rhs)};
  };
  auto pick = [&](const std::vector<int>& from) {
    return from[g.Below(from.size())];
  };
  for (int k = 0; k < z.probes; ++k) {
    in.probes.push_back(
        query(base, base_lhs[g.Below(base_lhs.size())], pick(attrs_in_v)));
  }
  for (int set = 0; set < z.fresh_sets; ++set) {
    in.fresh.emplace_back();
    std::set<std::vector<int>> fresh_lhs;
    for (int tries = 0; static_cast<int>(fresh_lhs.size()) < z.fresh; ++tries) {
      if (tries == 100000) {
        tally.Check(false, "too few fresh attribute sets");
        break;
      }
      std::set<int> cols;
      const std::size_t size = 2 + g.Below(3);
      while (cols.size() < size) cols.insert(pick(attrs_in_v));
      std::vector<int> lhs(cols.begin(), cols.end());
      if (in_v.count(lhs) || !fresh_lhs.insert(lhs).second) continue;
      in.fresh.back().push_back(query(base, lhs, pick(attrs_in_v)));
    }
  }
  std::vector<int> all_columns;
  for (int c = 0; c < z.columns; ++c) all_columns.push_back(c);
  if (!held_fds.empty()) {
    const Fd& fd = held_fds[g.Below(held_fds.size())];
    in.after_ingest = query(all, Columns(fd.lhs), pick(all_columns));
  }
  for (int k = 0; k < z.checks; ++k) {
    const Fd& fd = in.mined[g.Below(in.mined.size())];
    in.restart.push_back(query(all, Columns(fd.lhs), pick(all_columns)));
  }
  for (const std::vector<int>& fd : PlantedFds(z.columns, z.rows)) {
    const std::vector<int> lhs(fd.begin(), fd.end() - 1);
    Query q = query(all, lhs, fd.back());
    tally.Check(q.expected, "planted FD not in the mined closure: " + q.text);
    q.expected = true;
    in.planted.push_back(q);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

// Spans kept in memory: name, cycle, parent, start, end, and how many
// library calls a batch span covers. Off, it records nothing.
class Tracer {
 public:
  struct Rec {
    const char* name;
    int cycle;
    int parent;
    int64_t begin_ns;
    int64_t end_ns;
    uint64_t count;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }
  void set_cycle(int c) { cycle_ = c; }

  int Begin(const char* name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, cycle_, parent, Now(), 0, 1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id, uint64_t count) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    spans_[id].count = count;
    open_.pop_back();
  }
  const std::vector<Rec>& spans() const { return spans_; }

  // Duration minus the part covered by child spans, per span.
  std::vector<int64_t> SelfNanos() const {
    std::vector<int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].begin_ns;
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].begin_ns;
      }
    }
    return self;
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"cycle\": " << s.cycle << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.begin_ns << ", \"end_ns\": " << s.end_ns
          << ", \"count\": " << s.count << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  int cycle_ = 0;
  std::vector<Rec> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t count = 1)
      : tracer_(tracer), id_(tracer.Begin(name)), count_(count) {}
  ~Span() { tracer_.End(id_, count_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer& tracer_;
  int id_;
  uint64_t count_;
};

// ---------------------------------------------------------------------------
// The cycle
// ---------------------------------------------------------------------------

// How many explicit checkpoints and restarts a cycle makes. Each is timed
// on its own (all take a millisecond or more) and adds one sample.
struct Repeats {
  int checkpoints;
  int restarts;
};

using Samples = std::map<std::string, std::vector<double>>;

// DurablePdEngine's automatic checkpoint period, in accepted adds.
constexpr std::size_t kCheckpointEvery = 32;
// Plain adds timed together: each fsyncs, so 8 take about a millisecond.
constexpr std::size_t kAddBatch = 8;

struct Paths {
  std::string theory, snapshot, journal;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// Parses one PD per nonempty line.
Status ParseLines(const std::string& text, ExprArena* arena,
                  std::vector<Pd>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) {
      auto pd = arena->ParsePd(std::string_view(text).substr(pos, end - pos));
      if (!pd.ok()) return pd.status();
      out->push_back(*pd);
    }
    pos = end + 1;
  }
  return Status::OK();
}

class Cycle {
 public:
  Cycle(int index, const Inputs& in, const Repeats& repeats,
        const Paths& paths, Tracer& tracer, Tally& tally, Samples& samples)
      : index_(index), in_(in), repeats_(repeats), paths_(paths),
        tracer_(tracer), tally_(tally), samples_(samples) {}

  void Run() {
    const auto t0 = Clock::now();
    double excluded = 0;  // traced-only work the untraced cycle lacks
    {
      Span cycle(tracer_, "pipeline.cycle");
      if (!Setup()) return;
      const std::vector<Query>& fresh = in_.fresh[index_ % in_.fresh.size()];
      Record("probe_qps",
             in_.probes.size() / Queries("pipeline.probe",
                                         "core.implication.probe", in_.probes));
      Record("fresh_query_ms",
             Queries("pipeline.fresh", "core.implication.fresh", fresh) /
                 fresh.size() * 1e3);
      Ingest();
      Checkpoint();
      excluded = Restart();
    }
    Record("cycle_ms", (Seconds(t0, Clock::now()) - excluded) * 1e3);
  }

 private:
  bool traced() const { return tracer_.on(); }
  void Record(const std::string& name, double v) { samples_[name].push_back(v); }

  DurabilityOptions Options() const {
    DurabilityOptions o;
    o.snapshot_path = paths_.snapshot;
    o.journal_path = paths_.journal;
    o.checkpoint_every = kCheckpointEvery;
    return o;
  }

  // Text or CSV to an engine ready to answer.
  bool Setup() {
    Span phase(tracer_, "pipeline.setup");
    const auto t0 = Clock::now();
    if (in_.csv.empty()) {
      Span span(tracer_, "lattice.parse");
      tally_.CheckStatus(ParseLines(in_.theory, &arena_, &base_), "parse theory");
      span.set_count(base_.size());
    } else {
      Database db;
      Result<std::size_t> rel = Status::Internal("not loaded");
      {
        Span span(tracer_, "core.csv.load");
        rel = psem::LoadCsvRelation(in_.csv, &db);
      }
      tally_.CheckStatus(rel.status(), "LoadCsvRelation");
      if (!rel.ok()) return false;
      Result<std::vector<Fd>> mined = Status::Internal("not mined");
      {
        Span span(tracer_, "discovery.mine");
        mined = psem::DiscoverFds(db, db.relation(*rel));
      }
      tally_.Check(mined.ok() && *mined == in_.mined,
                   "DiscoverFds does not return the reference FD list");
      if (!mined.ok() || *mined != in_.mined) return false;
      std::vector<Fd> seeded;
      for (std::size_t i = 0; i < mined->size(); ++i) {
        if (!in_.held[i]) seeded.push_back((*mined)[i]);
      }
      Span span(tracer_, "core.fpd.map");
      base_ = psem::FdsToFpds(db.universe(), &arena_, seeded);
    }
    if (!traced()) {
      auto rec = DurablePdEngine::Recover(&arena_, base_, Options(), Ctx());
      tally_.CheckStatus(rec.status(), "Recover on an empty directory");
      if (!rec.ok()) return false;
      tally_.Check(rec->recovery().tier == RecoveryTier::kColdStart,
                   "empty directory does not recover as cold-start");
      durable_.emplace(std::move(*rec));
      engine_ = &durable_->engine();
    } else {
      // Recover's public parts on an empty directory.
      fingerprint_ = psem::TheoryFingerprint(arena_, base_);
      {
        Span span(tracer_, "util.durable_file.journal_open");
        auto journal = Journal::Open(paths_.journal);
        tally_.CheckStatus(journal.status(), "Journal::Open");
        if (!journal.ok()) return false;
        journal_.emplace(std::move(*journal));
      }
      {
        Span span(tracer_, "util.durable_file.read");
        auto bytes = psem::ReadFileBounded(paths_.snapshot);
        tally_.Check(bytes.status().code() == StatusCode::kNotFound,
                     "empty directory holds a snapshot");
      }
      own_ = std::make_unique<PdImplicationEngine>(&arena_, base_);
      engine_ = own_.get();
    }
    const auto tc = Clock::now();
    {
      Span span(tracer_, "core.implication.closure");
      tally_.CheckStatus(engine_->Prepare({}, Ctx()), "cold Prepare");
    }
    const auto t1 = Clock::now();
    closure_s_ = Seconds(tc, t1);
    Record("setup_s", Seconds(t0, t1));
    const psem::AlgStats& st = engine_->stats();
    Record("core.implication.seed_ms", st.seed_seconds * 1e3);
    Record("core.implication.rules_ms", st.rules_seconds * 1e3);
    Record("core.implication.transpose_ms", st.transpose_seconds * 1e3);
    Record("core.implication.sparse_rounds", st.sparse_rounds);
    Record("core.implication.dense_rounds", st.dense_rounds);
    Record("core.implication.vertices", st.num_vertices);
    Record("core.implication.arcs", st.num_arcs);
    return true;
  }

  // A batch of text queries: parse, then Implies, timed together.
  // Returns the seconds the batch took.
  double Queries(const char* phase_name, const char* implies_span,
                 const std::vector<Query>& queries) {
    Span phase(tracer_, phase_name);
    std::vector<Result<Pd>> pds;
    std::vector<Result<bool>> verdicts;
    pds.reserve(queries.size());
    verdicts.reserve(queries.size());
    const auto t0 = Clock::now();
    {
      Span span(tracer_, "lattice.parse", queries.size());
      for (const Query& q : queries) pds.push_back(arena_.ParsePd(q.text));
    }
    {
      Span span(tracer_, implies_span, queries.size());
      for (const Result<Pd>& pd : pds) {
        verdicts.push_back(pd.ok() ? engine_->Implies(*pd, Ctx())
                                   : Result<bool>(pd.status()));
      }
    }
    const double seconds = Seconds(t0, Clock::now());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      CheckVerdict(tally_, verdicts[i], queries[i]);
    }
    return seconds;
  }

  // Durable adds, then the first verdict over the grown E. Add number
  // kCheckpointEvery - 1 of every group takes DurablePdEngine's automatic
  // checkpoint and is timed on its own, the adds before it in batches of
  // kAddBatch; ingest_per_s comes from the medians of both (see main), so
  // that a rare fsync stall does not decide a sample. The first verdict
  // cannot be batched and is timed on its own.
  void Ingest() {
    {
      Span phase(tracer_, "pipeline.ingest");
      const std::size_t n = in_.ingest.size();
      for (std::size_t at = 0; at < n;) {
        const std::size_t checkpointing =
            at / kCheckpointEvery * kCheckpointEvery + kCheckpointEvery - 1;
        const auto t0 = Clock::now();
        if (at < checkpointing) {
          const std::size_t stop = std::min({n, checkpointing, at + kAddBatch});
          AddSome(at, stop);
          Record("ingest_add_s", Seconds(t0, Clock::now()) / (stop - at));
          at = stop;
        } else {
          AddSome(at, at + 1);
          if (traced()) WriteSnapshot();
          Record("ingest_checkpointing_add_s", Seconds(t0, Clock::now()));
          ++at;
        }
      }
    }
    const auto t0 = Clock::now();
    const Result<bool> verdict = FirstVerdict(in_.after_ingest);
    Record("ingest_verdict_ms", Seconds(t0, Clock::now()) * 1e3);
    CheckVerdict(tally_, verdict, in_.after_ingest);
  }

  void AddSome(std::size_t begin, std::size_t end) {
    if (traced()) {
      AddByParts(begin, end);
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      auto pd = arena_.ParsePd(in_.ingest[i]);
      tally_.CheckStatus(pd.ok() ? durable_->AddPd(*pd, Ctx()) : pd.status(),
                         "AddPd");
    }
  }

  void AddByParts(std::size_t begin, std::size_t end) {
    std::vector<Pd> pds;
    {
      Span span(tracer_, "lattice.parse", end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        auto pd = arena_.ParsePd(in_.ingest[i]);
        tally_.CheckStatus(pd.status(), "parse ingest");
        if (pd.ok()) pds.push_back(*pd);
      }
    }
    std::vector<std::string> records;
    for (const Pd& pd : pds) records.push_back(arena_.ToString(pd));
    {
      Span span(tracer_, "util.durable_file.journal_append", pds.size());
      for (const std::string& record : records) {
        tally_.CheckStatus(journal_->Append(record), "Journal::Append");
      }
    }
    Span span(tracer_, "core.implication.add_constraint", pds.size());
    for (const Pd& pd : pds) {
      tally_.CheckStatus(own_->AddConstraint(pd, Ctx()), "AddConstraint");
    }
  }

  Result<bool> FirstVerdict(const Query& q) {
    Span phase(tracer_, "pipeline.ingest_verdict");
    {
      Span span(tracer_, "core.implication.catchup");
      tally_.CheckStatus(engine_->Prepare({}, Ctx()), "Prepare after ingest");
    }
    Span span(tracer_, "core.implication.verdict");
    auto pd = arena_.ParsePd(q.text);
    return pd.ok() ? engine_->Implies(*pd, Ctx()) : Result<bool>(pd.status());
  }

  // EncodeSnapshot + AtomicWriteFile: the public parts of Checkpoint.
  void WriteSnapshot() {
    Result<std::string> bytes = Status::Internal("not encoded");
    {
      Span span(tracer_, "core.snapshot.encode");
      bytes = psem::EncodeSnapshot(*own_, fingerprint_);
    }
    tally_.CheckStatus(bytes.status(), "EncodeSnapshot");
    if (!bytes.ok()) return;
    Span span(tracer_, "util.durable_file.atomic_write");
    tally_.CheckStatus(psem::AtomicWriteFile(paths_.snapshot, *bytes),
                       "AtomicWriteFile");
  }

  void Checkpoint() {
    Span phase(tracer_, "pipeline.checkpoint");
    for (int c = 0; c < repeats_.checkpoints; ++c) {
      const auto t0 = Clock::now();
      if (traced()) {
        WriteSnapshot();
      } else {
        tally_.CheckStatus(durable_->Checkpoint(Ctx()), "Checkpoint");
      }
      Record("checkpoint_ms", Seconds(t0, Clock::now()) * 1e3);
    }
    std::size_t user_bytes = in_.theory.size();
    for (const std::string& text : in_.ingest) user_bytes += text.size() + 1;
    const uint64_t snap = FileSize(paths_.snapshot);
    const uint64_t wal = FileSize(paths_.journal);
    Record("disk_bytes_per_user_byte",
           static_cast<double>(snap + wal) / static_cast<double>(user_bytes));
    Record("core.snapshot.bytes", static_cast<double>(snap));
    Record("util.durable_file.journal_bytes", static_cast<double>(wal));
  }

  // Restarts from the files alone, repeats_.restarts times. Returns the
  // seconds spent on traced-only work (the standalone Crc32c).
  double Restart() {
    // The process "dies": nothing of the running engine is kept.
    durable_.reset();
    journal_.reset();
    own_.reset();
    engine_ = nullptr;
    Span phase(tracer_, "pipeline.restart");
    double extra = 0;
    for (int r = 0; r < repeats_.restarts; ++r) {
      ExprArena arena;
      std::optional<DurablePdEngine> durable;
      std::unique_ptr<PdImplicationEngine> own;
      PdImplicationEngine* engine = nullptr;
      const auto t0 = Clock::now();
      std::vector<Pd> base;
      const std::string text = ReadFile(paths_.theory);
      {
        Span span(tracer_, "lattice.parse");
        tally_.CheckStatus(ParseLines(text, &arena, &base), "parse theory file");
        span.set_count(base.size());
      }
      Clock::time_point restore_start;
      if (!traced()) {
        auto rec = DurablePdEngine::Recover(&arena, std::move(base), Options(),
                                            Ctx());
        tally_.CheckStatus(rec.status(), "Recover");
        if (!rec.ok()) continue;
        tally_.Check(rec->recovery().tier == RecoveryTier::kCleanRestore,
                     std::string("restart tier is ") +
                         psem::RecoveryTierName(rec->recovery().tier));
        durable.emplace(std::move(*rec));
        engine = &durable->engine();
      } else {
        own = RecoverByParts(&arena, base, &restore_start, &extra);
        engine = own.get();
        if (engine == nullptr) continue;
      }
      Result<bool> verdict = Status::Internal("not asked");
      {
        Span span(tracer_, "core.implication.verdict");
        auto pd = arena.ParsePd(in_.restart[0].text);
        verdict = pd.ok() ? engine->Implies(*pd, Ctx()) : Result<bool>(pd.status());
      }
      const auto t1 = Clock::now();
      Record("recover_ms", Seconds(t0, t1) * 1e3);
      if (traced()) {
        Record("core.snapshot.restore_vs_cold",
               Seconds(restore_start, t1) / closure_s_);
      }
      CheckVerdict(tally_, verdict, in_.restart[0]);
      if (r + 1 == repeats_.restarts) CheckRecovered(arena, *engine);
    }
    return extra;
  }

  // Recover's public parts, each in its span: journal open, snapshot
  // read, decode, fingerprint check, restore, journal replay.
  std::unique_ptr<PdImplicationEngine> RecoverByParts(
      ExprArena* arena, const std::vector<Pd>& base,
      Clock::time_point* restore_start, double* extra) {
    std::optional<Journal> journal;
    {
      Span span(tracer_, "util.durable_file.journal_open");
      auto j = Journal::Open(paths_.journal);
      tally_.CheckStatus(j.status(), "Journal::Open");
      if (!j.ok()) return nullptr;
      journal.emplace(std::move(*j));
    }
    Result<std::string> bytes = Status::Internal("not read");
    {
      Span span(tracer_, "util.durable_file.read");
      bytes = psem::ReadFileBounded(paths_.snapshot);
    }
    tally_.CheckStatus(bytes.status(), "ReadFileBounded");
    if (!bytes.ok()) return nullptr;
    // Crc32c over the snapshot bytes on its own; Decode checks the
    // per-chunk checksums itself, so this span is not part of the restart.
    const auto c0 = Clock::now();
    uint32_t crc = 0;
    {
      Span span(tracer_, "util.durable_file.crc32c");
      crc = psem::Crc32c(bytes->data(), bytes->size());
    }
    *extra += Seconds(c0, Clock::now());
    (void)crc;
    *restore_start = Clock::now();
    Result<psem::DecodedSnapshot> snap = Status::Internal("not decoded");
    {
      Span span(tracer_, "core.snapshot.decode");
      snap = psem::DecodeSnapshot(*bytes, arena);
    }
    tally_.CheckStatus(snap.status(), "DecodeSnapshot");
    if (!snap.ok()) return nullptr;
    // The conditions of the clean-restore tier: the snapshot's base is
    // this theory and the journal has no torn tail.
    tally_.Check(snap->base_fingerprint == psem::TheoryFingerprint(*arena, base) &&
                     !journal->recovered().tail_truncated,
                 "restart would not be a clean-restore");
    auto engine = std::make_unique<PdImplicationEngine>(arena, std::vector<Pd>{});
    {
      Span span(tracer_, "core.snapshot.restore");
      tally_.CheckStatus(
          engine->RestoreEngineState(snap->vertices, std::move(snap->constraints),
                                     std::move(snap->state)),
          "RestoreEngineState");
    }
    const std::vector<std::string>& records = journal->recovered().records;
    std::vector<Pd> pds;
    {
      Span span(tracer_, "lattice.parse", records.size());
      for (const std::string& record : records) {
        auto pd = arena->ParsePd(record);
        tally_.CheckStatus(pd.status(), "parse journal record");
        if (pd.ok()) pds.push_back(*pd);
      }
    }
    Span span(tracer_, "core.snapshot.replay", records.size());
    for (const Pd& pd : pds) {
      const auto& e = engine->constraints();
      if (std::find(e.begin(), e.end(), pd) == e.end()) {
        tally_.CheckStatus(engine->AddConstraint(pd, Ctx()), "replay");
      }
    }
    return engine;
  }

  // After the last restart: every acknowledged constraint is in E, and
  // the remaining restart and planted queries get the expected verdicts.
  void CheckRecovered(ExprArena& arena, PdImplicationEngine& engine) {
    const auto& e = engine.constraints();
    for (const std::string& text : in_.ingest) {
      auto pd = arena.ParsePd(text);
      tally_.Check(pd.ok() && std::find(e.begin(), e.end(), *pd) != e.end(),
                   "acknowledged constraint lost by restart: " + text);
    }
    for (std::size_t i = 1; i < in_.restart.size(); ++i) {
      auto pd = arena.ParsePd(in_.restart[i].text);
      CheckVerdict(tally_, pd.ok() ? engine.Implies(*pd, Ctx())
                                   : Result<bool>(pd.status()),
                   in_.restart[i]);
    }
    for (const Query& q : in_.planted) {
      auto pd = arena.ParsePd(q.text);
      CheckVerdict(tally_, pd.ok() ? engine.Implies(*pd, Ctx())
                                   : Result<bool>(pd.status()),
                   q);
    }
  }

  const int index_;
  const Inputs& in_;
  const Repeats& repeats_;
  const Paths& paths_;
  Tracer& tracer_;
  Tally& tally_;
  Samples& samples_;

  ExprArena arena_;  // outlives every engine below
  std::vector<Pd> base_;
  uint64_t fingerprint_ = 0;
  std::optional<DurablePdEngine> durable_;   // untraced
  std::optional<Journal> journal_;           // traced
  std::unique_ptr<PdImplicationEngine> own_; // traced
  PdImplicationEngine* engine_ = nullptr;
  double closure_s_ = 0;
};

// ---------------------------------------------------------------------------
// Oracle self-check at small size
// ---------------------------------------------------------------------------

// The valuation and FD-closure oracles checked against the literal
// transcription of ALG on small instances of each workload.
void CheckOraclesSmall(const std::string& workload, uint64_t seed,
                       Tally& tally) {
  Inputs in;
  if (workload == "chain") {
    in = MakeChain(seed, {8, 3, 24, 3, 2, 12});
  } else if (workload == "dense") {
    in = MakeDense(seed, {5, 6, 3, 24, 5, 2, 12});
  } else {
    in = MakeFdMined(seed, {240, 8, 24, 6, 2, 12}, tally);
  }
  ExprArena arena;
  std::vector<Pd> e;
  tally.CheckStatus(ParseLines(in.theory, &arena, &e), "small theory");
  auto against_naive = [&](const std::vector<Query>& qs) {
    for (const Query& q : qs) {
      auto pd = arena.ParsePd(q.text);
      tally.Check(pd.ok() && psem::NaivePdImplication(arena, e, *pd) == q.expected,
                  "oracle disagrees with NaivePdImplication on " + q.text);
    }
  };
  against_naive(in.probes);
  for (const std::vector<Query>& set : in.fresh) against_naive(set);
  for (const std::string& text : in.ingest) {
    auto pd = arena.ParsePd(text);
    tally.CheckStatus(pd.status(), "small ingest");
    if (pd.ok()) e.push_back(*pd);
  }
  against_naive({in.after_ingest});
  against_naive(in.restart);
  against_naive(in.planted);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& EndToEnd() {
  static const std::vector<Metric> k = {
      {"setup_s", "s"},
      {"probe_qps", "queries/s"},
      {"fresh_query_ms", "ms"},
      {"ingest_per_s", "adds/s"},
      {"ingest_verdict_ms", "ms"},
      {"checkpoint_ms", "ms"},
      {"recover_ms", "ms"},
      {"disk_bytes_per_user_byte", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return k;
}

// Per-layer metrics read off the spans: per cycle, the span's self time
// summed over the cycle and divided by the library calls it covered, in
// `scale` units per second. A layer a workload never calls reads 0.
struct SpanMetric {
  const char* name;
  const char* span;
  const char* unit;
  double scale;
};

const std::vector<SpanMetric>& SpanMetrics() {
  static const std::vector<SpanMetric> k = {
      {"lattice.parse_us", "lattice.parse", "us", 1e6},
      {"core.implication.closure_ms", "core.implication.closure", "ms", 1e3},
      {"core.implication.probe_ns", "core.implication.probe", "ns", 1e9},
      {"core.implication.fresh_closure_ms", "core.implication.fresh", "ms", 1e3},
      {"core.implication.add_constraint_us", "core.implication.add_constraint",
       "us", 1e6},
      {"core.implication.catchup_ms", "core.implication.catchup", "ms", 1e3},
      {"core.snapshot.encode_ms", "core.snapshot.encode", "ms", 1e3},
      {"core.snapshot.decode_ms", "core.snapshot.decode", "ms", 1e3},
      {"core.snapshot.restore_ms", "core.snapshot.restore", "ms", 1e3},
      {"core.snapshot.replay_ms", "core.snapshot.replay", "ms", 1e3},
      {"util.durable_file.crc32c_ms", "util.durable_file.crc32c", "ms", 1e3},
      {"util.durable_file.atomic_write_ms", "util.durable_file.atomic_write",
       "ms", 1e3},
      {"util.durable_file.read_ms", "util.durable_file.read", "ms", 1e3},
      {"util.durable_file.journal_append_us", "util.durable_file.journal_append",
       "us", 1e6},
      {"util.durable_file.journal_open_ms", "util.durable_file.journal_open",
       "ms", 1e3},
      {"core.csv.load_ms", "core.csv.load", "ms", 1e3},
      {"discovery.mine_ms", "discovery.mine", "ms", 1e3},
      {"core.fpd.map_ms", "core.fpd.map", "ms", 1e3},
  };
  return k;
}

// Per-layer metrics recorded directly as per-cycle samples.
const std::vector<Metric>& SampleLayerMetrics() {
  static const std::vector<Metric> k = {
      {"core.implication.seed_ms", "ms"},
      {"core.implication.rules_ms", "ms"},
      {"core.implication.transpose_ms", "ms"},
      {"core.implication.sparse_rounds", "count"},
      {"core.implication.dense_rounds", "count"},
      {"core.implication.vertices", "count"},
      {"core.implication.arcs", "count"},
      {"core.snapshot.bytes", "bytes"},
      {"core.snapshot.restore_vs_cold", "ratio"},
      {"util.durable_file.journal_bytes", "bytes"},
  };
  return k;
}

void AddSpanSamples(const Tracer& tracer, int first_cycle, int last_cycle,
                    Samples* samples) {
  const std::vector<int64_t> self = tracer.SelfNanos();
  for (const SpanMetric& m : SpanMetrics()) {
    for (int c = first_cycle; c <= last_cycle; ++c) {
      double nanos = 0, calls = 0;
      for (std::size_t i = 0; i < self.size(); ++i) {
        const Tracer::Rec& s = tracer.spans()[i];
        if (s.cycle == c && std::strcmp(s.name, m.span) == 0) {
          nanos += self[i];
          calls += s.count;
        }
      }
      (*samples)[m.name].push_back(calls > 0 ? nanos / calls * 1e-9 * m.scale
                                             : 0.0);
    }
  }
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Workload {
  const char* name;
  Repeats repeats;
};

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload chain|dense|fd_mined "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else if (flag == "--work-dir") work_dir = value;
    else if (flag == "--trace-out") trace_out = value;
    else return Usage();
  }
  if (argc % 2 == 0 || work_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to report from a build with assertions\n");
  return 3;
#endif

  static const Workload kWorkloads[] = {
      {"chain", {1, 1}},
      {"dense", {4, 2}},
      {"fd_mined", {16, 8}},
  };
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (workload == k.name) w = &k;
  }
  if (w == nullptr) return Usage();

  std::printf("host: cpu=\"%s\" nproc=%ld build=%s workload=%s seed=%llu\n",
              CpuModel().c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_BUILD_TYPE, w->name,
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  Tally tally;
  CheckOraclesSmall(workload, seed, tally);
  Inputs in;
  if (workload == "chain") {
    in = MakeChain(seed, {2048, 64, 32768, 4, 64, 16});
  } else if (workload == "dense") {
    in = MakeDense(seed, {32, 512, 64, 16384, 8, 32, 16});
  } else {
    in = MakeFdMined(seed, {100000, 16, 65536, 256, 8, 16}, tally);
  }

  if (::mkdir(work_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
    return 1;
  }
  const std::string theory_path = work_dir + "/theory.txt";
  {
    std::ofstream out(theory_path, std::ios::binary);
    out << in.theory;
  }
  // Each cycle starts on an empty directory of its own, and all are
  // removed after the run: freeing the old files (a discard, on file
  // systems mounted with it) stays out of the measured window.
  std::vector<std::string> cycle_dirs;
  auto paths_for = [&](int cycle) {
    const std::string dir = work_dir + "/cycle" + std::to_string(cycle);
    ::mkdir(dir.c_str(), 0777);
    cycle_dirs.push_back(dir);
    return Paths{theory_path, dir + "/closure.snap", dir + "/closure.wal"};
  };

  Tracer tracer(trace == 1);
  Samples samples, warmup;
  int cycles = 0;
  if (tally.failed() == 0) {
    // One warm-up cycle fills caches and the allocator; its timings are
    // dropped, its checks are kept.
    const Paths first = paths_for(0);
    Cycle(0, in, w->repeats, first, tracer, tally, warmup).Run();
    const auto start = Clock::now();
    while (cycles == 0 || Seconds(start, Clock::now()) < seconds) {
      tracer.set_cycle(++cycles);
      const Paths paths = paths_for(cycles);
      Cycle(cycles, in, w->repeats, paths, tracer, tally, samples).Run();
    }
  }
  samples["peak_rss_mb"].push_back(PeakRssMb());
  // kCheckpointEvery adds: that many - 1 plain ones and one that takes
  // the automatic checkpoint.
  if (!samples["ingest_add_s"].empty() &&
      !samples["ingest_checkpointing_add_s"].empty()) {
    const double group_s =
        (kCheckpointEvery - 1) * Median(samples["ingest_add_s"]) +
        Median(samples["ingest_checkpointing_add_s"]);
    samples["ingest_per_s"].push_back(kCheckpointEvery / group_s);
  }
  for (const std::string& dir : cycle_dirs) {
    for (const char* f : {"closure.snap", "closure.snap.tmp", "closure.wal"}) {
      ::unlink((dir + "/" + f).c_str());
    }
    ::rmdir(dir.c_str());
  }
  ::unlink(theory_path.c_str());
  ::rmdir(work_dir.c_str());

  std::vector<Metric> report;
  if (trace == 1) {
    AddSpanSamples(tracer, 1, cycles, &samples);
    for (const SpanMetric& m : SpanMetrics()) report.push_back({m.name, m.unit});
    for (const Metric& m : SampleLayerMetrics()) report.push_back(m);
    report.push_back({"discovery.fds", "count"});
    samples["discovery.fds"].push_back(static_cast<double>(in.mined.size()));
    report.push_back({"bench.cycle_ms", "ms"});
    samples["bench.cycle_ms"] = samples["cycle_ms"];
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  } else {
    report = EndToEnd();
  }
  std::printf("cycles: measured=%d cycle_ms=%s traced=%d\n", cycles,
              FormatNumber(Median(samples["cycle_ms"])).c_str(), trace);
  // Sample count and spread of everything sampled, on stderr.
  for (auto& [name, values] : samples) {
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    if (v.empty()) continue;
    std::fprintf(stderr,
                 "sample %-40s n=%-4zu min=%-12.6g q1=%-12.6g median=%-12.6g "
                 "q3=%-12.6g max=%.6g\n",
                 name.c_str(), v.size(), v.front(), v[v.size() / 4], Median(v),
                 v[(3 * v.size()) / 4], v.back());
  }

  bool correct = tally.failed() == 0 && cycles > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted()) +
                     ", \"failed\": " + std::to_string(tally.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    auto it = samples.find(report[i].name);
    const double v = it == samples.end() ? 0.0 : Median(it->second);
    json += (i ? ", " : "") + std::string("\"") + report[i].name +
            "\": {\"value\": " + FormatNumber(v) + ", \"unit\": \"" +
            report[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
