#include "recompose.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>

#include "core/column_mapper.h"
#include "core/edges.h"
#include "core/potentials.h"
#include "util/hash.h"
#include "util/random.h"
#include "wwt/api.h"
#include "wwt/consolidator.h"

namespace servebench {

using namespace wwt;

namespace {

void ApplyScoreFloor(std::vector<ScoredDoc>* hits, double fraction) {
  if (hits->empty()) return;
  const double floor = (*hits)[0].score * fraction;
  while (!hits->empty() && hits->back().score < floor) hits->pop_back();
}

}  // namespace

// Mirrors WwtEngine::Execute step for step (same probes, floors, row
// sampling seed and caps), so the digest comparison in the caller can
// prove the re-timed pipeline is the served one.
Recomposed Recompose(const std::vector<std::string>& columns,
                     const CorpusSet& corpus, const EngineOptions& options,
                     Tracer* tracer, uint64_t request) {
  const CorpusStats& stats = corpus.stats();
  const std::vector<CorpusShardRef>& shards = corpus.shard_refs();
  Recomposed out;
  RecomposeCounts& counts = out.counts;
  ScopedSpan root(tracer, "recompose", request);

  auto probe = [&](const std::vector<std::string>& keywords, int k,
                   uint64_t parent) {
    std::vector<ScoredDoc> merged;
    for (const CorpusShardRef& shard : shards) {
      std::vector<ScoredDoc> hits;
      {
        ScopedSpan span(tracer, "index.search", request, parent);
        hits = shard.index->Search(keywords, k, options.scorer);
      }
      counts.index_hits += hits.size();
      merged.insert(merged.end(), hits.begin(), hits.end());
    }
    if (shards.size() > 1) {
      std::sort(merged.begin(), merged.end(),
                [](const ScoredDoc& a, const ScoredDoc& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.doc < b.doc;
                });
      if (k >= 0 && static_cast<int>(merged.size()) > k) merged.resize(k);
    }
    return merged;
  };

  auto read = [&](const std::vector<ScoredDoc>& docs,
                  const std::vector<CandidateTable>* have, uint64_t parent) {
    std::unordered_set<TableId> skip;
    if (have != nullptr) {
      for (const CandidateTable& t : *have) skip.insert(t.table.id);
    }
    std::vector<CandidateTable> tables;
    for (const ScoredDoc& doc : docs) {
      if (skip.count(doc.doc)) continue;
      const TableStore* store = nullptr;
      for (const CorpusShardRef& shard : shards) {
        if (doc.doc >= shard.store->first_id() &&
            doc.doc < shard.store->end_id()) {
          store = shard.store;
        }
      }
      if (store == nullptr) continue;
      StatusOr<WebTable> table = Status::NotFound("unread");
      {
        ScopedSpan span(tracer, "store.get", request, parent);
        table = store->Get(doc.doc);
      }
      ++counts.store_gets;
      if (!table.ok()) continue;
      ScopedSpan span(tracer, "candidate.build", request, parent);
      tables.push_back(CandidateTable::Build(std::move(table).value(), stats));
    }
    return tables;
  };

  Query query;
  {
    ScopedSpan span(tracer, "query.parse", request, root.id());
    query = Query::Parse(columns, stats);
  }

  RetrievalResult result;
  std::vector<ScoredDoc> hits1;
  {
    ScopedSpan span(tracer, "probe1", request, root.id());
    hits1 = probe(query.all_keywords, options.probe1_k, span.id());
    ApplyScoreFloor(&hits1, options.score_floor_fraction);
  }
  {
    ScopedSpan span(tracer, "read1", request, root.id());
    result.tables = read(hits1, nullptr, span.id());
  }
  result.from_first_probe = static_cast<int>(result.tables.size());

  std::vector<std::pair<double, int>> confident;
  {
    ScopedSpan span(tracer, "mapper.quick", request, root.id());
    MapperOptions quick = options.mapper;
    quick.mode = InferenceMode::kIndependent;
    ColumnMapper mapper(&stats, quick);
    MapResult quick_map = mapper.Map(query, result.tables);
    for (size_t t = 0; t < quick_map.tables.size(); ++t) {
      const TableMapping& tm = quick_map.tables[t];
      if (tm.relevant && tm.relevance_prob >= options.confident_prob) {
        confident.emplace_back(tm.relevance_prob, static_cast<int>(t));
      }
    }
    std::sort(confident.begin(), confident.end(),
              std::greater<std::pair<double, int>>());
    if (confident.size() > 2) confident.resize(2);
  }

  if (!confident.empty()) {
    result.used_second_probe = true;
    std::vector<std::string> keywords2 = query.all_keywords;
    uint64_t seed = 0xC0FFEE;
    for (const std::string& kw : query.all_keywords) {
      seed = seed * 1099511628211ULL + Fnv1a(kw);
    }
    Random rng(seed);
    for (const auto& [prob, t] : confident) {
      const WebTable& table = result.tables[t].table;
      const int rows = table.num_body_rows();
      if (rows == 0) continue;
      const int want = options.sample_rows / static_cast<int>(confident.size());
      for (size_t r : rng.SampleWithoutReplacement(rows, std::max(want, 1))) {
        std::string row_text;
        for (const std::string& cell : table.body[r]) {
          row_text += cell;
          row_text += ' ';
        }
        keywords2.push_back(std::move(row_text));
      }
    }
    std::vector<ScoredDoc> hits2;
    {
      ScopedSpan span(tracer, "probe2", request, root.id());
      hits2 = probe(keywords2, options.probe2_k, span.id());
      ApplyScoreFloor(&hits2, std::max(options.score_floor_fraction, 0.25));
    }
    ScopedSpan span(tracer, "read2", request, root.id());
    std::vector<CandidateTable> extra = read(hits2, &result.tables, span.id());
    result.new_from_second_probe = static_cast<int>(extra.size());
    for (CandidateTable& t : extra) result.tables.push_back(std::move(t));
  }
  if (static_cast<int>(result.tables.size()) > options.max_candidates) {
    result.tables.resize(options.max_candidates);
  }

  // The full pass's two named sub-costs, timed on their own: the mapper
  // below repeats them internally (its time minus theirs is inference).
  {
    ScopedSpan span(tracer, "potentials.compute", request, root.id());
    FeatureComputer features(&stats, options.mapper.features);
    for (const CandidateTable& t : result.tables) {
      ComputeNodePotentials(query, t, &features, options.mapper.weights,
                            options.mapper.use_pmi2);
    }
  }
  if (options.mapper.mode != InferenceMode::kIndependent) {
    std::vector<CrossEdge> edges;
    {
      ScopedSpan span(tracer, "edges.build", request, root.id());
      edges = BuildCrossEdges(result.tables, options.mapper.edges);
    }
    const size_t n = result.tables.size();
    counts.edge_pairs = n * (n > 0 ? n - 1 : 0) / 2;
    std::set<std::pair<int, int>> kept;
    for (const CrossEdge& e : edges) {
      kept.emplace(std::min(e.t1, e.t2), std::max(e.t1, e.t2));
    }
    counts.edge_pairs_kept = kept.size();
  }
  MapResult mapping;
  {
    ScopedSpan span(tracer, "mapper.full", request, root.id());
    ColumnMapper mapper(&stats, options.mapper);
    mapping = mapper.Map(query, result.tables);
  }
  AnswerTable answer;
  {
    ScopedSpan span(tracer, "consolidator.consolidate", request, root.id());
    answer = Consolidate(query, result.tables, mapping, options.consolidator);
  }
  out.digest = ResultDigest(result, mapping, answer);
  return out;
}

}  // namespace servebench
