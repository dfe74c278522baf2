// Copyright 2026 The WWT Authors
//
// The outside-in recomposition of one query: the WwtEngine pipeline
// re-run from the benchmark through each layer's public functions
// (Query::Parse, TableIndex::Search, TableStore::Get,
// CandidateTable::Build, ColumnMapper::Map, ComputeNodePotentials,
// BuildCrossEdges, Consolidate), with a span around every call. Its
// ResultDigest must equal the service response it re-times; that check
// is what shows the per-layer split is faithful to the served pipeline.

#ifndef SERVEBENCH_RECOMPOSE_H_
#define SERVEBENCH_RECOMPOSE_H_

#include <string>
#include <vector>

#include "index/corpus_set.h"
#include "trace.h"
#include "wwt/engine.h"

namespace servebench {

struct RecomposeCounts {
  size_t index_hits = 0;
  size_t store_gets = 0;
  /// Table pairs BuildCrossEdges considered, and those it kept at least
  /// one edge for.
  size_t edge_pairs = 0;
  size_t edge_pairs_kept = 0;
};

struct Recomposed {
  std::string digest;
  RecomposeCounts counts;
};

/// Re-runs the pipeline for `columns` over `corpus` (in-process probes,
/// no freshness overlay) under `options`, recording spans with request
/// id `request` into `tracer`.
Recomposed Recompose(const std::vector<std::string>& columns,
                     const wwt::CorpusSet& corpus,
                     const wwt::EngineOptions& options, Tracer* tracer,
                     uint64_t request);

}  // namespace servebench

#endif  // SERVEBENCH_RECOMPOSE_H_
