// Ablation benchmarks for the engine design choices DESIGN.md calls out
// (beyond the paper's own experiments):
//
//  1. join algorithm on ongoing relations — nested-loop vs hash on the
//     same equi+temporal predicate;
//  2. the Sec. VIII conjunctive-predicate split — evaluating the fixed
//     part as a plain filter and only the ongoing part against RT,
//     vs evaluating the whole conjunction as one ongoing predicate;
//  3. typed join keys — the engine's ValueHash/ValueEq hash join vs the
//     legacy implementation that rendered every key Value into a
//     freshly allocated string (kept here as the ablation baseline).
//
// Set ONGOINGDB_BENCH_JSON to a file path to additionally emit the
// measurements as machine-readable JSON (the BENCH_*.json baselines).
#include <cstdio>
#include <unordered_map>

#include "bench_common.h"
#include "query/join.h"
#include "relation/algebra.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

using namespace ongoingdb;
using namespace ongoingdb::bench;

namespace {

// --- legacy string-key hash join (ablation baseline) ------------------------
// A faithful reproduction of the implementation this engine shipped with:
// join keys were built by formatting every Value with ToString into a
// heap-allocated string, and every candidate pair materialized its
// concatenated value vector before the residual was evaluated, copying
// it again on emission.

std::string LegacyKeyOf(const Tuple& t, const std::vector<size_t>& indices) {
  std::string key;
  for (size_t i : indices) {
    key += t.value(i).ToString();
    key += '\x1f';
  }
  return key;
}

Status LegacyEmitIfMatching(const Schema& joined_schema, const Tuple& lt,
                            const Tuple& rt, const ExprPtr& residual,
                            OngoingRelation* out) {
  IntervalSet rt_set = lt.rt().Intersect(rt.rt());
  if (rt_set.IsEmpty()) return Status::OK();
  std::vector<Value> values;
  values.reserve(lt.num_values() + rt.num_values());
  for (const Value& v : lt.values()) values.push_back(v);
  for (const Value& v : rt.values()) values.push_back(v);
  if (residual != nullptr) {
    Tuple combined(std::move(values), rt_set);
    ONGOINGDB_ASSIGN_OR_RETURN(
        OngoingBoolean pred, residual->EvalPredicate(joined_schema, combined));
    rt_set = rt_set.Intersect(pred.st());
    if (rt_set.IsEmpty()) return Status::OK();
    out->AppendUnchecked(Tuple(combined.values(), std::move(rt_set)));
    return Status::OK();
  }
  out->AppendUnchecked(Tuple(std::move(values), std::move(rt_set)));
  return Status::OK();
}

Result<OngoingRelation> LegacyStringKeyHashJoin(const OngoingRelation& left,
                                                const OngoingRelation& right,
                                                const ExprPtr& predicate,
                                                const std::string& left_prefix,
                                                const std::string& right_prefix) {
  std::vector<EquiKey> keys;
  ExprPtr residual;
  ONGOINGDB_RETURN_NOT_OK(ExtractEquiConjuncts(predicate, left.schema(),
                                               right.schema(), left_prefix,
                                               right_prefix, &keys,
                                               &residual));
  std::vector<size_t> left_idx, right_idx;
  for (const EquiKey& key : keys) {
    left_idx.push_back(key.left_index);
    right_idx.push_back(key.right_index);
  }
  Schema joined =
      left.schema().Concat(right.schema(), left_prefix, right_prefix);
  OngoingRelation result(joined);
  std::unordered_multimap<std::string, size_t> table;
  table.reserve(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    table.emplace(LegacyKeyOf(left.tuple(i), left_idx), i);
  }
  for (const Tuple& rt : right.tuples()) {
    auto [begin, end] = table.equal_range(LegacyKeyOf(rt, right_idx));
    for (auto it = begin; it != end; ++it) {
      ONGOINGDB_RETURN_NOT_OK(LegacyEmitIfMatching(
          joined, left.tuple(it->second), rt, residual, &result));
    }
  }
  return result;
}

// One side of the typed-key ablation workload: the shape of the paper's
// QC similarity join, which keys on the three string attributes
// (Product, Component, OS) plus an integer bug key. String keys are
// where the legacy KeyOf hurts most — every probe formatted and
// heap-copied all three strings into a fresh key.
OngoingRelation MakeQcSide(uint64_t seed, int64_t n,
                           const std::vector<std::string>& products,
                           const std::vector<std::string>& components,
                           const std::vector<std::string>& oses) {
  Rng rng(seed);
  OngoingRelation r(Schema({{"K", ValueType::kInt64},
                            {"Product", ValueType::kString},
                            {"Component", ValueType::kString},
                            {"OS", ValueType::kString},
                            {"D", ValueType::kTimePoint},
                            {"VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < n; ++i) {
    OngoingInterval vt;
    if (rng.Bernoulli(0.3)) {
      vt = OngoingInterval::SinceUntilNow(rng.Uniform(0, 3000));
    } else {
      TimePoint s = rng.Uniform(0, 3000);
      vt = OngoingInterval::Fixed(s, s + rng.Uniform(1, 400));
    }
    Status st = r.Insert(
        {Value::Int64(rng.Uniform(0, 9)),
         Value::String(products[static_cast<size_t>(
             rng.Uniform(0, static_cast<int64_t>(products.size()) - 1))]),
         Value::String(components[static_cast<size_t>(
             rng.Uniform(0, static_cast<int64_t>(components.size()) - 1))]),
         Value::String(oses[static_cast<size_t>(
             rng.Uniform(0, static_cast<int64_t>(oses.size()) - 1))]),
         Value::Time(MD(1, 1) + rng.Uniform(0, 59)),
         Value::Ongoing(vt)});
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return r;
}

// (3) typed vs string join keys, at the ISSUE's reference size of
// 10k x 10k tuples per side on the QC-style multi-column string key.
// Reported as the pure equi join (the key machinery isolated) and with
// the Allen residual of the paper's Q^join.
void TypedKeyAblation(BenchJsonWriter* json) {
  std::printf("\n(3) Typed vs string join keys (hash join, %lld x %lld, "
              "QC key: Product, Component, OS)\n",
              static_cast<long long>(Scaled(10000)),
              static_cast<long long>(Scaled(10000)));
  TablePrinter table;
  table.SetHeader({"predicate", "typed [ms]", "string [ms]", "speedup",
                   "typed allocs", "string allocs"});
  const int64_t n = Scaled(10000);
  // Shared string pools, Mozilla-ish lengths (beyond small-string
  // optimization once formatted into a concatenated key).
  Rng pool_rng(99);
  std::vector<std::string> products, components, oses;
  for (int i = 0; i < 40; ++i) {
    products.push_back("product-" + pool_rng.String(12));
  }
  for (int i = 0; i < 25; ++i) {
    components.push_back("component-" + pool_rng.String(12));
  }
  for (int i = 0; i < 10; ++i) {
    oses.push_back("os-" + pool_rng.String(10));
  }
  OngoingRelation r = MakeQcSide(5, n, products, components, oses);
  OngoingRelation s = MakeQcSide(6, n, products, components, oses);
  ExprPtr key_eq =
      And(Eq(Col("L.Product"), Col("R.Product")),
          And(Eq(Col("L.Component"), Col("R.Component")),
              Eq(Col("L.OS"), Col("R.OS"))));
  struct Case {
    const char* label;
    ExprPtr pred;
  };
  const Case cases[] = {
      {"theta_sim", key_eq},
      // Adding the report-day equality makes the key selective and
      // temporal: the legacy path now formats a civil date per key on
      // top of the three string copies.
      {"theta_sim and same day",
       And(key_eq, Eq(Col("L.D"), Col("R.D")))},
      {"theta_sim and overlaps",
       And(key_eq, OverlapsExpr(Col("L.VT"), Col("R.VT")))},
  };
  for (const Case& c : cases) {
    size_t typed_out = 0, string_out = 0;
    uint64_t typed_allocs = 0, string_allocs = 0;
    uint64_t typed_bytes = 0, string_bytes = 0;
    auto check = [](const Result<OngoingRelation>& result) -> size_t {
      if (!result.ok()) {
        std::fprintf(stderr, "join failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      return result->size();
    };
    double typed_ms = MedianSeconds([&] {
                        AllocScope scope;
                        auto result = HashJoin(r, s, c.pred, "L", "R");
                        typed_allocs = scope.count();
                        typed_bytes = scope.bytes();
                        typed_out = check(result);
                      }) * 1e3;
    double string_ms = MedianSeconds([&] {
                         AllocScope scope;
                         auto result =
                             LegacyStringKeyHashJoin(r, s, c.pred, "L", "R");
                         string_allocs = scope.count();
                         string_bytes = scope.bytes();
                         string_out = check(result);
                       }) * 1e3;
    if (typed_out != string_out) {
      std::fprintf(stderr, "result size mismatch: typed %zu vs string %zu\n",
                   typed_out, string_out);
      std::exit(1);
    }
    table.AddRow({c.label, FormatDouble(typed_ms, 2),
                  FormatDouble(string_ms, 2),
                  FormatDouble(string_ms / typed_ms, 2),
                  std::to_string(typed_allocs),
                  std::to_string(string_allocs)});
    const std::string size = std::to_string(n) + "x" + std::to_string(n);
    json->AddMs("hash_join/typed/" + size + "/" + c.label, typed_ms,
                static_cast<double>(typed_bytes),
                static_cast<double>(typed_allocs));
    json->AddMs("hash_join/string_key/" + size + "/" + c.label, string_ms,
                static_cast<double>(string_bytes),
                static_cast<double>(string_allocs));
  }
  table.Print();
  std::printf("typed keys hash the Value variant directly; string keys "
              "format and allocate per tuple.\n");
}

void JoinAlgorithmAblation(BenchJsonWriter* json) {
  std::printf("\n(1) Join algorithms on ongoing relations "
              "(L.K = R.K AND L.VT overlaps R.VT)\n");
  TablePrinter table;
  table.SetHeader(
      {"# tuples/side", "nested-loop [ms]", "hash [ms]", "result"});
  for (int64_t base : {1000, 2000, 4000}) {
    const int64_t n = Scaled(base);
    datasets::SyntheticOptions options;
    options.cardinality = n;
    options.key_cardinality = n / 10;
    options.seed = 5;
    OngoingRelation r = datasets::GenerateSynthetic(options);
    options.seed = 6;
    OngoingRelation s = datasets::GenerateSynthetic(options);
    ExprPtr pred = And(Eq(Col("L.K"), Col("R.K")),
                       OverlapsExpr(Col("L.VT"), Col("R.VT")));
    size_t out = 0;
    double nl = MedianSeconds([&] {
                  auto result = NestedLoopJoin(r, s, pred, "L", "R");
                  out = result->size();
                }) * 1e3;
    double hash = MedianSeconds([&] {
                    (void)*HashJoin(r, s, pred, "L", "R");
                  }) * 1e3;
    table.AddRow({std::to_string(n), FormatDouble(nl, 2),
                  FormatDouble(hash, 2), std::to_string(out)});
    const std::string size = std::to_string(n) + "x" + std::to_string(n);
    json->AddMs("join_algorithm/nested_loop/" + size, nl);
    json->AddMs("join_algorithm/hash/" + size, hash);
  }
  table.Print();
  std::printf("hash prunes non-matching key pairs before touching any "
              "ongoing predicate.\n");
}

void PredicateSplitAblation(BenchJsonWriter* json) {
  std::printf("\n(2) Conjunctive-predicate split (Sec. VIII)\n");
  TablePrinter table;
  table.SetHeader({"# tuples", "selectivity", "split [ms]",
                   "unsplit [ms]"});
  for (double selectivity : {0.01, 0.1, 0.5}) {
    const int64_t n = Scaled(200000);
    OngoingRelation r = datasets::GenerateDsc(n);
    auto interval = SelectionInterval(r);
    if (!interval.ok()) return;
    const int64_t key_limit = static_cast<int64_t>(1000 * selectivity);
    ExprPtr pred =
        And(Lt(Col("K"), Lit(key_limit)),
            OverlapsExpr(Col("VT"), Lit(OngoingInterval::Fixed(
                                        interval->start, interval->end))));
    // Split execution: the fixed conjunct is evaluated as a plain
    // filter; only survivors pay the ongoing-predicate machinery.
    SplitPredicate split = Split(pred, r.schema());
    double split_ms =
        MedianSeconds([&] {
          OngoingRelation out(r.schema());
          for (const Tuple& t : r.tuples()) {
            auto keep =
                split.fixed_part->EvalPredicateFixed(r.schema(), t);
            if (!keep.ok() || !*keep) continue;
            auto b = split.ongoing_part->EvalPredicate(r.schema(), t);
            IntervalSet rt = t.rt().Intersect(b->st());
            if (rt.IsEmpty()) continue;
            out.AppendUnchecked(Tuple(t.values(), std::move(rt)));
          }
        }) * 1e3;
    // Unsplit execution: the whole conjunction evaluated as one ongoing
    // predicate per tuple (the fixed conjunct becomes a constant ongoing
    // boolean that still pays interval-set conjunction work).
    double unsplit_ms =
        MedianSeconds([&] {
          OngoingRelation out = Select(r, [&pred, &r](const Tuple& t) {
            auto b = pred->EvalPredicate(r.schema(), t);
            return b.ok() ? *b : OngoingBoolean::False();
          });
        }) * 1e3;
    table.AddRow({std::to_string(n), FormatDouble(selectivity, 2),
                  FormatDouble(split_ms, 2), FormatDouble(unsplit_ms, 2)});
    const std::string sel = FormatDouble(selectivity, 2);
    json->AddMs("predicate_split/split/sel=" + sel, split_ms);
    json->AddMs("predicate_split/unsplit/sel=" + sel, unsplit_ms);
  }
  table.Print();
  std::printf("the split skips the ongoing machinery for tuples the "
              "fixed WHERE part already rejects.\n");
}

// --- (4) index-nested-loop join ---------------------------------------------
// One side with a low-cardinality key and narrow fixed valid times, the
// other with probe intervals whose width sweeps the temporal
// selectivity: hash prunes by key only (1/10 of all pairs survive to
// the residual), index-NL prunes by time first (sel * pairs). The
// crossover the cost-based kAuto gate models (query/optimizer.h) is
// directly visible in this sweep.

OngoingRelation MakeTemporalSide(uint64_t seed, const std::string& prefix,
                                 int64_t n, TimePoint domain,
                                 TimePoint width) {
  Rng rng(seed);
  OngoingRelation r(Schema({{prefix + "K", ValueType::kInt64},
                            {prefix + "VT", ValueType::kOngoingInterval}}));
  for (int64_t i = 0; i < n; ++i) {
    TimePoint s = rng.Uniform(0, domain - width);
    Status st = r.Insert({Value::Int64(rng.Uniform(0, 9)),
                          Value::Ongoing(OngoingInterval::Fixed(s, s + width))});
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return r;
}

void IndexNLJoinAblation(BenchJsonWriter* json) {
  const int64_t n = Scaled(2000);
  const TimePoint domain = 3000;
  std::printf("\n(4) Index-nested-loop join (L.K = R.K AND L.VT overlaps "
              "R.VT, %lld x %lld, probe-width selectivity sweep)\n",
              static_cast<long long>(n), static_cast<long long>(n));
  TablePrinter table;
  table.SetHeader({"probe width", "~sel", "index-nl [ms]", "hash [ms]",
                   "scan-nl [ms]", "result"});
  OngoingRelation inner = MakeTemporalSide(21, "R_", n, domain, 10);
  const std::string size = std::to_string(n) + "x" + std::to_string(n);
  auto run = [&](const PlanPtr& plan) {
    auto result = Execute(plan);
    if (!result.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return result->size();
  };
  for (TimePoint width : {TimePoint{10}, TimePoint{50}, TimePoint{200},
                          TimePoint{800}}) {
    OngoingRelation outer = MakeTemporalSide(22, "L_", n, domain, width);
    ExprPtr pred = And(Eq(Col("L_K"), Col("R_K")),
                       OverlapsExpr(Col("L_VT"), Col("R_VT")));
    auto plan_with = [&](JoinAlgorithm algorithm) {
      return Join(Scan(&outer, "L"), Scan(&inner, "R"), pred, "L", "R",
                  algorithm);
    };
    size_t out = 0;
    double index_ms = MedianSeconds([&] {
                        out = run(plan_with(JoinAlgorithm::kIndexNL));
                      }) * 1e3;
    double hash_ms = MedianSeconds([&] {
                       (void)run(plan_with(JoinAlgorithm::kHash));
                     }) * 1e3;
    double nl_ms = MedianSeconds([&] {
                     (void)run(plan_with(JoinAlgorithm::kNestedLoop));
                   }) * 1e3;
    // Rough candidate fraction of the width sweep: both widths over the
    // shared domain (printed for orientation, not measured).
    const double sel =
        static_cast<double>(width + 10) / static_cast<double>(domain);
    table.AddRow({std::to_string(width), FormatDouble(sel, 3),
                  FormatDouble(index_ms, 2), FormatDouble(hash_ms, 2),
                  FormatDouble(nl_ms, 2), std::to_string(out)});
    const std::string w = "w=" + std::to_string(width);
    json->AddMs("index_nl_join/sweep/" + size + "/" + w + "/index_nl",
                index_ms);
    json->AddMs("index_nl_join/sweep/" + size + "/" + w + "/hash", hash_ms);
    json->AddMs("index_nl_join/sweep/" + size + "/" + w + "/nested_loop",
                nl_ms);
  }
  table.Print();
  std::printf("index-NL prunes by time before the residual; hash prunes by "
              "key only.\n");

  // Warm vs cold inner index: a cold drain recompiles the tree (the
  // index is rebuilt from scratch), a warm drain reuses the compiled
  // tree and revalidates the fingerprint only — the MaterializedView
  // refresh pattern.
  {
    OngoingRelation outer = MakeTemporalSide(23, "L_", n, domain, 50);
    PlanPtr plan = Join(Scan(&outer, "L"), Scan(&inner, "R"),
                        And(Eq(Col("L_K"), Col("R_K")),
                            OverlapsExpr(Col("L_VT"), Col("R_VT"))),
                        "L", "R", JoinAlgorithm::kIndexNL);
    double cold_ms = MedianSeconds([&] {
                       auto op = Compile(plan, ExecMode::kOngoing);
                       if (!op.ok()) std::exit(1);
                       (void)*DrainToRelation(**op);
                     }) * 1e3;
    auto op = Compile(plan, ExecMode::kOngoing);
    if (!op.ok()) std::exit(1);
    (void)*DrainToRelation(**op);  // build the index outside the timing
    double warm_ms = MedianSeconds([&] {
                       (void)*DrainToRelation(**op);
                     }) * 1e3;
    // Parallel drain of the same plan: outer morsel-split, one shared
    // inner index across the partition pipelines.
    ParallelOptions par;
    par.workers = 4;
    par.min_parallel_tuples = 0;
    double par_ms = MedianSeconds([&] {
                      auto result = Execute(plan, par);
                      if (!result.ok()) std::exit(1);
                    }) * 1e3;
    std::printf("inner index: cold %s ms, warm %s ms; parallel drain "
                "(4 workers) %s ms\n",
                FormatDouble(cold_ms, 2).c_str(),
                FormatDouble(warm_ms, 2).c_str(),
                FormatDouble(par_ms, 2).c_str());
    json->AddMs("index_nl_join/inner_index/" + size + "/cold", cold_ms);
    json->AddMs("index_nl_join/inner_index/" + size + "/warm", warm_ms);
    json->AddMs("index_nl_join/parallel/" + size + "/workers=4", par_ms);
  }
}

}  // namespace

int main() {
  std::printf("Ablations: engine design choices\n");
  BenchJsonWriter json("ablation_joins");
  JoinAlgorithmAblation(&json);
  PredicateSplitAblation(&json);
  TypedKeyAblation(&json);
  IndexNLJoinAblation(&json);
  json.WriteFromEnv();
  return 0;
}
