#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "corpus/corpus_generator.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "index/snapshot.h"
#include "net/shard_client.h"
#include "recompose.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"
#include "wwt/engine.h"
#include "wwt/service.h"
#include "workers.h"

namespace servebench {

using namespace wwt;

namespace {

// Sized for a 4-core machine: at most 4 client threads, a service pool
// of at most 4 threads, one fan-out thread per shard.
constexpr int kServiceThreads = 4;
constexpr int kShards = 2;
// routed-open: Poisson arrivals per second, half the rate (about 140/s)
// at which the routed path saturated at the commit that defined it; the
// sweep is in README.md.
constexpr double kRoutedRate = 70;
// fresh-zipf: reader skew, writer rate, and the pending-entry count that
// triggers a merge.
constexpr int kReaders = 2;
constexpr double kZipfS = 1.1;
constexpr double kWriteRate = 10;
constexpr size_t kMergeAt = 100;
constexpr size_t kCacheBytes = size_t{256} << 20;
// Requests carry this deadline; a failed request counts as missing it.
constexpr double kLatencyLimitS = 10;
// serial and routed-open have no writes of their own. So that write_*
// exist on every workload, they time this many back-to-back writes on a
// second service over the same artifact (their reads never see the
// delta), merged every kMergeAt writes like fresh-zipf. The window runs
// as kSegments read segments with a slice of the writes after each, so
// the writes sample the same stretch of time as the reads.
constexpr size_t kWrites = 500;
constexpr int kSegments = 5;
// An open-loop generator whose p99 lateness exceeds this (about 3.5
// mean arrival gaps) fell behind: its run is invalid, not fast. Shorter
// stalls are scheduling jitter, and count in latency anyway, since
// latency is timed from the scheduled send.
constexpr double kMaxLagP99Ms = 50;
// Donor corpus scale (tables the writer adds and updates with).
constexpr double kDonorScale = 0.1;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

enum class Layout { kSerial, kRouted, kFresh };

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}
Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

std::vector<std::string> Columns(const ResolvedQuery& rq) {
  std::vector<std::string> cols;
  for (const QueryColumnSpec& c : rq.spec.columns) cols.push_back(c.keywords);
  return cols;
}

QueryRequest Request(const std::vector<std::string>& columns) {
  QueryRequest r = QueryRequest::Of(columns);
  r.WithTimeout(kLatencyLimitS);
  return r;
}

// ------------------------------------------------------------ reference

/// Serial WwtEngine answers over the generated corpus: the digest every
/// served answer must equal, and the Fig. 5/6 errors of those answers.
struct Reference {
  std::vector<std::vector<std::string>> columns;
  std::vector<std::string> digest;
  double map_error_pct = 0;
  double answer_error_pct = 0;
};

Reference BuildReference(const Corpus& corpus, const EngineOptions& options) {
  Reference ref;
  WwtEngine engine(&corpus.store, corpus.index.get(), options);
  EvalHarness harness(&corpus, options, 1);
  std::vector<double> map_err, answer_err;
  for (const ResolvedQuery& rq : corpus.queries) {
    ref.columns.push_back(Columns(rq));
    QueryExecution exec = engine.Execute(ref.columns.back());
    ref.digest.push_back(ResultDigest(exec));
    EvalCase c;
    c.resolved = rq;
    c.query = exec.query;
    c.retrieval = exec.retrieval;
    for (const CandidateTable& t : exec.retrieval.tables) {
      c.truth.push_back(
          TruthLabels(rq, corpus.TruthFor(t.table.id), t.num_cols));
    }
    map_err.push_back(
        F1Error(EvalHarness::PredictedLabels(exec.mapping), c.truth));
    answer_err.push_back(harness.AnswerError(c, exec.mapping));
  }
  ref.map_error_pct = Mean(map_err);
  ref.answer_error_pct = Mean(answer_err);
  return ref;
}

// --------------------------------------------------------------- set-up

/// One served system. Members are destroyed bottom-up: the service
/// before the probes it routes through, the probes before the workers.
struct Served {
  std::vector<std::unique_ptr<WorkerProcess>> workers;
  std::unique_ptr<net::RemoteProbeSet> probes;
  std::unique_ptr<WwtService> service;
  /// The service writes go to: `service` on fresh-zipf, a second one
  /// over the same artifact elsewhere.
  std::unique_ptr<WwtService> second;
  WwtService* writes = nullptr;
  std::string artifact;
  std::string journal;
};

struct SetupTimes {
  double generate = 0, save = 0, open = 0, workers = 0, first = 0, total = 0;
};

/// Workload start to first answer: generate, save, open + service
/// create, worker spawn + Hello, and the first query (always query 0,
/// so set-up time does not depend on the traffic seed).
Status SetUp(const RunConfig& config, Layout layout, int rep, Corpus* corpus,
             Served* served, SetupTimes* t) {
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  auto lap = [&mark](double* into) {
    const Clock::time_point now = Clock::now();
    *into = SecondsBetween(mark, now);
    mark = now;
  };

  CorpusOptions options;
  options.seed = config.corpus_seed;
  options.scale = config.scale;
  *corpus = GenerateCorpus(options);
  lap(&t->generate);

  SetManifest manifest;
  if (layout == Layout::kSerial) {
    served->artifact = "corpus.wwtsnap";
    WWT_RETURN_NOT_OK(SaveSnapshot(*corpus, options, served->artifact));
  } else {
    served->artifact = "corpus.wwtset";
    WWT_RETURN_NOT_OK(SaveShardedSnapshot(*corpus, options, served->artifact,
                                          kShards, &manifest));
  }
  lap(&t->save);

  ServiceOptions service_options;
  service_options.num_threads =
      layout == Layout::kSerial ? 1 : kServiceThreads;
  service_options.shard_threads = kShards;
  if (layout == Layout::kFresh) {
    service_options.cache.capacity_bytes = kCacheBytes;
  }
  WWT_ASSIGN_OR_RETURN(served->service,
                       WwtService::FromSnapshot(served->artifact,
                                                service_options));
  served->journal = "delta.wwtdlt";
  std::filesystem::remove(served->journal);
  if (layout == Layout::kFresh) {
    WWT_RETURN_NOT_OK(served->service->EnableFreshness(served->journal));
  }
  lap(&t->open);

  if (layout == Layout::kRouted) {
    std::vector<std::vector<std::string>> endpoints;
    for (size_t i = 0; i < manifest.shards.size(); ++i) {
      WWT_ASSIGN_OR_RETURN(
          std::unique_ptr<WorkerProcess> worker,
          WorkerProcess::Spawn(
              config.shardd,
              ResolveShardPath(served->artifact, manifest.shards[i].file),
              "unix:w" + std::to_string(rep) + "-" + std::to_string(i) +
                  ".sock"));
      endpoints.push_back({worker->address()});
      served->workers.push_back(std::move(worker));
    }
    WWT_ASSIGN_OR_RETURN(
        served->probes,
        net::RemoteProbeSet::Connect(*served->service->corpus(), endpoints));
    WWT_RETURN_NOT_OK(
        served->service->AttachRemoteProbes(served->probes->Probes()));
  }
  lap(&t->workers);

  QueryResponse first =
      served->service->Run(Request(Columns(corpus->queries[0])));
  if (!first.ok()) return first.status;
  lap(&t->first);
  t->total = SecondsSince(start);
  return Status::OK();
}

// -------------------------------------------------------------- samples

struct QuerySample {
  int query = 0;
  bool ok = false;
  bool from_cache = false;
  /// From the scheduled send time (open loop) or the send (closed loop);
  /// infinite for a failed request.
  double latency_s = 0;
  /// Actual send to completion.
  double client_s = 0;
  double queue_s = 0;
  double execute_s = 0;
  Clock::time_point sent, done;
  std::map<std::string, double> stages;
  int candidates = 0;
  bool used_probe2 = false;
  int probe2_new = 0;
};

/// Fills `s` from a response; `expected` (when non-null) is the digest
/// the answer must equal.
void Fill(const QueryResponse& r, const std::string* expected, QuerySample* s) {
  s->ok = r.ok() && !r.partial &&
          (expected == nullptr || ResultDigest(r) == *expected);
  s->from_cache = r.served_from_cache;
  s->queue_s = r.queue_seconds;
  s->execute_s = r.execute_seconds;
  s->stages = r.timing.stages();
  s->candidates = static_cast<int>(r.retrieval.tables.size());
  s->used_probe2 = r.retrieval.used_second_probe;
  s->probe2_new = r.retrieval.new_from_second_probe;
}

/// The request's root span plus its queue and execute children, placed
/// from the response's own accounting.
void RecordRequestSpans(Tracer* tracer, uint64_t request,
                        const QuerySample& s) {
  if (!tracer->enabled()) return;
  Span root{"client.request", tracer->NewId(), 0, request, s.sent, s.done};
  const Clock::time_point queued_until =
      std::min(After(s.sent, s.queue_s), s.done);
  const Clock::time_point executed_until =
      std::min(After(queued_until, s.execute_s), s.done);
  tracer->Add(Span{"service.queue", tracer->NewId(), root.id, request, s.sent,
                   queued_until});
  tracer->Add(Span{"service.execute", tracer->NewId(), root.id, request,
                   queued_until, executed_until});
  tracer->Add(std::move(root));
}

struct WriteSample {
  WriteKind kind = WriteKind::kAdd;
  bool ok = false;
  /// From the scheduled time (open loop) or the call (slices); infinite
  /// for a failed write.
  double latency_s = 0;
  double call_s = 0;
  size_t pending = 0;
  int64_t journal_bytes = 0;
  std::string error;
};

struct MergeSample {
  Clock::time_point start, end;
  bool ok = false;
  std::string error;
};

/// Everything one timed window produced.
struct Window {
  double seconds = 0;
  /// Successful queries completed inside the window.
  size_t completed = 0;
  std::vector<QuerySample> queries;
  std::vector<WriteSample> writes;
  std::vector<MergeSample> merges;
  std::vector<double> lag_s;
  std::vector<double> rpc_s;
};

/// Ends a window that started at `start` and lasted `seconds`.
void Close(Clock::time_point start, double seconds, Window* w) {
  const Clock::time_point end = After(start, seconds);
  w->seconds = seconds;
  for (const QuerySample& s : w->queries) w->completed += s.ok && s.done <= end;
}

/// Appends `part` (a later segment) to `w`.
void Absorb(Window part, Window* w) {
  w->seconds += part.seconds;
  w->completed += part.completed;
  auto append = [](auto& from, auto& to) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  append(part.queries, w->queries);
  append(part.writes, w->writes);
  append(part.merges, w->merges);
  append(part.lag_s, w->lag_s);
  append(part.rpc_s, w->rpc_s);
}

// -------------------------------------------------------------- probes

/// Times every RemoteShardClient::Search the router makes. RPC spans
/// carry no request id: the probe seam does not pass one.
class TimedProbe : public ShardProbe {
 public:
  TimedProbe(std::shared_ptr<const ShardProbe> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  StatusOr<std::vector<ScoredDoc>> Search(
      const std::vector<std::string>& keywords, int k, ProbeScorer scorer,
      Clock::time_point deadline) const override {
    const Clock::time_point start = Clock::now();
    auto search = [&] {
      ScopedSpan span(tracer_, "net.rpc", 0);
      return inner_->Search(keywords, k, scorer, deadline);
    };
    StatusOr<std::vector<ScoredDoc>> hits = search();
    const double s = SecondsSince(start);
    MutexLock lock(mu_);
    seconds_.push_back(s);
    return hits;
  }

  /// The call times recorded so far (and forgets them).
  std::vector<double> Take() {
    MutexLock lock(mu_);
    return std::move(seconds_);
  }

 private:
  const std::shared_ptr<const ShardProbe> inner_;
  Tracer* const tracer_;
  mutable Mutex mu_;
  mutable std::vector<double> seconds_ WWT_GUARDED_BY(mu_);
};

// --------------------------------------------------------------- writer

/// The seeded freshness writer: the i-th call applies the i-th operation
/// of the mix. The seed orders the operations; everything else is fixed,
/// so every seed changes the corpus alike and write cost does not hinge
/// on which tables a seed happens to pick: adds append the donor tables
/// in order, and each other kind draws its frozen target ids from a
/// stream of its own. Every operation is valid: no target is tombstoned.
class Writer {
 public:
  Writer(WwtService* service, std::vector<WebTable> donors,
         TableId frozen_end, uint64_t seed, std::string journal)
      : service_(service),
        donors_(std::move(donors)),
        mix_(WriteMix(4096, SubSeed(seed, 20))),
        frozen_end_(frozen_end),
        targets_{Random(0x7a26e75), Random(0x0c0ffee), Random(0x70b570e)},
        journal_(std::move(journal)) {}

  /// Writes issued so far.
  size_t count() const { return next_; }

  WriteSample Next(Tracer* tracer) {
    static const char* const kSpan[kNumWriteKinds] = {
        "fresh.add", "fresh.update", "fresh.override", "fresh.tombstone"};
    const size_t i = next_++;
    WriteSample s;
    s.kind = mix_[i % mix_.size()];
    // Arguments are prepared before the clock starts: only the service
    // call is timed.
    WebTable table;
    TableId target = 0;
    Status status;
    if (s.kind == WriteKind::kAdd) {
      table = donors_[adds_++ % donors_.size()];
    } else {
      target = Target(s.kind);
    }
    if (s.kind == WriteKind::kUpdate) {
      // A corrected table: the served content with one cell revised.
      StatusOr<WebTable> current = Current(target);
      status = current.status();
      if (current.ok()) {
        table = std::move(current).value();
        std::string& cell = table.body.empty() || table.body[0].empty()
                                ? table.title_rows.emplace_back()
                                : table.body[0][0];
        cell += " revised " + std::to_string(i);
      }
    }
    s.pending = service_->delta_view()->num_entries();
    const int64_t journal_before = FileSize(journal_);
    const Clock::time_point start = Clock::now();
    if (status.ok()) {
      ScopedSpan span(tracer, kSpan[static_cast<int>(s.kind)], 0);
      switch (s.kind) {
        case WriteKind::kAdd:
          status = service_->AddTable(std::move(table)).status();
          break;
        case WriteKind::kUpdate:
          status = service_->UpdateTable(std::move(table));
          break;
        case WriteKind::kOverride: {
          fresh::SummaryOverride patch;
          patch.title = "revised table " + std::to_string(i);
          status = service_->OverrideSummary(target, patch);
          break;
        }
        case WriteKind::kTombstone:
          status = service_->TombstoneTable(target);
          break;
      }
    }
    s.call_s = SecondsSince(start);
    s.ok = status.ok();
    if (!s.ok) s.error = status.ToString();
    s.journal_bytes = FileSize(journal_) - journal_before;
    return s;
  }

 private:
  /// The next frozen id of `kind`'s stream that is not tombstoned (a
  /// tombstone retires its own draw).
  TableId Target(WriteKind kind) {
    Random& stream = targets_[static_cast<int>(kind) - 1];
    while (true) {
      const TableId id = static_cast<TableId>(stream.Uniform(frozen_end_));
      if (tombstoned_.count(id) != 0) continue;
      if (kind == WriteKind::kTombstone) tombstoned_.insert(id);
      return id;
    }
  }

  /// The content currently served for `id`: the delta's copy, else the
  /// frozen record.
  StatusOr<WebTable> Current(TableId id) const {
    std::shared_ptr<const fresh::DeltaView> view = service_->delta_view();
    if (view->Contains(id)) return view->Read(id);
    std::shared_ptr<const CorpusSet> corpus = service_->corpus();
    for (const CorpusShardRef& shard : corpus->shard_refs()) {
      if (id >= shard.store->first_id() && id < shard.store->end_id()) {
        return shard.store->Get(id);
      }
    }
    return Status::NotFound("no live table ", id);
  }

  WwtService* const service_;
  const std::vector<WebTable> donors_;
  const std::vector<WriteKind> mix_;
  const TableId frozen_end_;
  /// Target streams of update, override and tombstone.
  Random targets_[3];
  const std::string journal_;
  std::set<TableId> tombstoned_;
  size_t next_ = 0;
  size_t adds_ = 0;
};

std::vector<WebTable> DonorTables(const RunConfig& config) {
  CorpusOptions options;
  options.seed = SubSeed(config.corpus_seed, 99);
  options.scale = std::min(config.scale, kDonorScale);
  Corpus donor = GenerateCorpus(options);
  std::vector<WebTable> tables;
  for (TableId id = donor.store.first_id(); id < donor.store.end_id(); ++id) {
    StatusOr<WebTable> t = donor.store.Get(id);
    if (t.ok()) tables.push_back(std::move(t).value());
  }
  return tables;
}

/// One merge into merged.wwtset. Shard files of superseded merges are
/// deleted (mapped readers keep their pages), so disk holds one set.
MergeSample MergeOnce(WwtService* service, Tracer* tracer) {
  MergeSample m;
  m.start = Clock::now();
  Status status;
  {
    ScopedSpan span(tracer, "fresh.merge", 0);
    status = service->MergeDeltaToSet("merged.wwtset");
  }
  m.end = Clock::now();
  m.ok = status.ok();
  if (!m.ok) m.error = status.ToString();
  StatusOr<SetManifest> manifest = LoadSetManifest("merged.wwtset");
  if (manifest.ok()) {
    std::vector<std::string> keep;
    for (const ShardManifestEntry& e : manifest->shards) keep.push_back(e.file);
    for (const auto& entry : std::filesystem::directory_iterator(".")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("merged.g", 0) == 0 &&
          std::find(keep.begin(), keep.end(), name) == keep.end()) {
        std::filesystem::remove(entry.path());
      }
    }
  }
  return m;
}

/// Runs MergeDeltaToSet on its own thread whenever asked (one at a
/// time) — the count trigger MergeDaemon would apply, made deterministic.
class Merger {
 public:
  Merger(WwtService* service, Tracer* tracer)
      : service_(service), tracer_(tracer), thread_([this] { Loop(); }) {}
  ~Merger() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }
  Merger(const Merger&) = delete;
  Merger& operator=(const Merger&) = delete;

  /// Asks for a merge; ignored while one is pending or running.
  void Request() {
    MutexLock lock(mu_);
    if (requested_ || running_) return;
    requested_ = true;
    cv_.NotifyAll();
  }

  /// Waits for a requested or running merge to finish, then returns
  /// every merge done so far.
  std::vector<MergeSample> Drain() {
    MutexLock lock(mu_);
    while (requested_ || running_) cv_.Wait(mu_);
    return std::move(done_);
  }

 private:
  void Loop() {
    MutexLock lock(mu_);
    while (true) {
      while (!requested_ && !stop_) cv_.Wait(mu_);
      if (!requested_) return;
      requested_ = false;
      running_ = true;
      mu_.Unlock();
      MergeSample m = MergeOnce(service_, tracer_);
      mu_.Lock();
      running_ = false;
      done_.push_back(std::move(m));
      cv_.NotifyAll();
    }
  }

 private:
  WwtService* const service_;
  Tracer* const tracer_;
  Mutex mu_;
  CondVar cv_;
  bool requested_ WWT_GUARDED_BY(mu_) = false;
  bool running_ WWT_GUARDED_BY(mu_) = false;
  bool stop_ WWT_GUARDED_BY(mu_) = false;
  std::vector<MergeSample> done_ WWT_GUARDED_BY(mu_);
  std::thread thread_;
};

// -------------------------------------------------------------- windows

/// serial: one client, each request sent when the previous one returns.
void SerialWindow(Served& served, const Reference& ref, ShuffledCycle* order,
                  double seconds, Tracer* tracer, uint64_t* next_request,
                  Window* w) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(start, seconds);
  while (Clock::now() < end) {
    QuerySample s;
    s.query = order->Next();
    QueryRequest request = Request(ref.columns[s.query]);
    s.sent = Clock::now();
    QueryResponse r = served.service->Run(std::move(request));
    s.done = Clock::now();
    s.client_s = SecondsBetween(s.sent, s.done);
    Fill(r, &ref.digest[s.query], &s);
    s.latency_s = s.ok ? s.client_s : HUGE_VAL;
    RecordRequestSpans(tracer, ++*next_request, s);
    w->queries.push_back(std::move(s));
  }
  Close(start, seconds, w);
}

/// routed-open: the calling thread sends each request at its scheduled
/// time without waiting for earlier ones; a collector thread notices
/// completions (polling every 0.2 ms) and checks every answer.
void OpenLoopWindow(Served& served, const Reference& ref,
                    const std::vector<double>& arrivals, ShuffledCycle* order,
                    double seconds, Tracer* tracer, uint64_t* next_request,
                    Window* w) {
  struct InFlight {
    QuerySample sample;
    Clock::time_point scheduled;
    uint64_t request = 0;
    std::future<QueryResponse> future;
  };
  Mutex mu;
  CondVar cv;
  std::vector<InFlight> queue;  // guarded by mu
  bool sending_done = false;    // guarded by mu

  std::thread collector([&] {
    std::vector<InFlight> inflight;
    while (true) {
      {
        MutexLock lock(mu);
        while (queue.empty() && inflight.empty() && !sending_done) cv.Wait(mu);
        for (InFlight& f : queue) inflight.push_back(std::move(f));
        queue.clear();
        if (inflight.empty() && sending_done) return;
      }
      if (inflight.empty()) continue;
      bool any = false;
      for (size_t i = 0; i < inflight.size();) {
        InFlight& f = inflight[i];
        if (f.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        any = true;
        QuerySample& s = f.sample;
        s.done = Clock::now();
        QueryResponse r = f.future.get();
        s.client_s = SecondsBetween(s.sent, s.done);
        Fill(r, &ref.digest[s.query], &s);
        s.latency_s = s.ok ? SecondsBetween(f.scheduled, s.done) : HUGE_VAL;
        RecordRequestSpans(tracer, f.request, s);
        w->queries.push_back(std::move(s));
        inflight[i] = std::move(inflight.back());
        inflight.pop_back();
      }
      if (!any) {
        inflight.front().future.wait_for(std::chrono::microseconds(200));
      }
    }
  });

  // Lets the collector drain and exit; runs on every path out.
  auto finish_sending = [&] {
    {
      MutexLock lock(mu);
      sending_done = true;
      cv.NotifyAll();
    }
    collector.join();
  };
  const Clock::time_point start = Clock::now();
  try {
    for (double offset : arrivals) {
      InFlight f;
      f.scheduled = After(start, offset);
      std::this_thread::sleep_until(f.scheduled);
      f.sample.query = order->Next();
      f.request = ++*next_request;
      QueryRequest request = Request(ref.columns[f.sample.query]);
      f.sample.sent = Clock::now();
      w->lag_s.push_back(SecondsBetween(f.scheduled, f.sample.sent));
      f.future = served.service->Submit(std::move(request));
      MutexLock lock(mu);
      queue.push_back(std::move(f));
      cv.NotifyAll();
    }
  } catch (...) {
    finish_sending();
    throw;
  }
  std::this_thread::sleep_until(After(start, seconds));
  finish_sending();
  Close(start, seconds, w);
}

/// The seeded clients whose state carries across windows: the writer
/// (every workload) and fresh-zipf's Zipf readers.
struct Clients {
  std::unique_ptr<Writer> writer;
  std::vector<ZipfStream> readers;
};

/// fresh-zipf: kReaders closed-loop Zipf readers, one open-loop writer
/// at kWriteRate, and a merge every time kMergeAt entries are pending.
void FreshWindow(Served& served, Clients* state, const Reference& ref,
                 double seconds, Tracer* tracer, uint64_t* next_request,
                 Window* w) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = After(start, seconds);
  std::atomic<uint64_t> request_ids{*next_request};
  std::vector<std::vector<QuerySample>> per_reader(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (Clock::now() < end) {
        QuerySample s;
        s.query = state->readers[r].Next();
        QueryRequest request = Request(ref.columns[s.query]);
        s.sent = Clock::now();
        QueryResponse resp = served.service->Run(std::move(request));
        s.done = Clock::now();
        s.client_s = SecondsBetween(s.sent, s.done);
        // The served corpus changes under the readers; answers are
        // checked against a reference after the window.
        Fill(resp, nullptr, &s);
        s.latency_s = s.ok ? s.client_s : HUGE_VAL;
        RecordRequestSpans(tracer, ++request_ids, s);
        per_reader[r].push_back(std::move(s));
      }
    });
  }
  {
    Merger merger(served.service.get(), tracer);
    try {
      for (int k = 1;; ++k) {
        const Clock::time_point scheduled = After(start, k / kWriteRate);
        if (scheduled >= end) break;
        std::this_thread::sleep_until(scheduled);
        w->lag_s.push_back(SecondsSince(scheduled));
        WriteSample s = state->writer->Next(tracer);
        s.latency_s = s.ok ? SecondsSince(scheduled) : HUGE_VAL;
        w->writes.push_back(std::move(s));
        if (served.service->delta_view()->num_entries() >= kMergeAt) {
          merger.Request();
        }
      }
    } catch (...) {
      // The readers stop at `end` on their own.
      for (std::thread& t : readers) t.join();
      throw;
    }
    for (std::thread& t : readers) t.join();
    w->merges = merger.Drain();
  }
  *next_request = request_ids;
  for (auto& samples : per_reader) {
    for (QuerySample& s : samples) w->queries.push_back(std::move(s));
  }
  Close(start, seconds, w);
}

// -------------------------------------------------------------- metrics

std::vector<double> Latencies(const std::vector<QuerySample>& samples) {
  std::vector<double> v;
  for (const QuerySample& s : samples) v.push_back(s.latency_s);
  return v;
}

/// Milliseconds of percentile p over `seconds`, with failed (infinite)
/// samples reported as the latency limit they missed.
double PercentileMs(const std::vector<double>& seconds, double p) {
  const double v = Percentile(seconds, p);
  return 1e3 * (std::isfinite(v) ? v : kLatencyLimitS);
}

void CountOps(const Window& w, Report* report) {
  for (const QuerySample& s : w.queries) report->Count("query", s.ok);
  for (const WriteSample& s : w.writes) {
    report->Count("write", s.ok);
    if (!s.ok) report->Fail(std::string("write failed: ") + s.error);
  }
  for (const MergeSample& m : w.merges) {
    report->Count("merge", m.ok);
    if (!m.ok) report->Fail("merge failed: " + m.error);
  }
  size_t mismatched = 0;
  for (const QuerySample& s : w.queries) mismatched += !s.ok;
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " queries failed or answered differently from the "
                 "reference");
  }
}

/// States the samples behind a tail percentile, and whether at least 10
/// lie beyond it.
void NoteTail(const char* name, size_t n, double p, Report* report) {
  report->Note(std::string(name) + " over " + std::to_string(n) +
               " samples, " + std::to_string(SamplesBeyond(n, p)) +
               " beyond" +
               (TailSupported(n, p) ? "" : " (fewer than 10: unsupported)"));
}

/// routed-open's generator only submits, so its lateness is its own; a
/// run where it fell behind is invalid. (fresh-zipf's writer waits for
/// each write, so its lateness is the system's and shows in write_*.)
void CheckGenerator(Layout layout, const Window& w, Report* report) {
  if (layout != Layout::kRouted || w.lag_s.empty()) return;
  const double p99_ms = 1e3 * Percentile(w.lag_s, 99);
  if (p99_ms > kMaxLagP99Ms) {
    report->Fail("open-loop generator fell behind: lateness p99 " +
                 std::to_string(p99_ms) + " ms (run invalid)");
  }
}

void WriteMetrics(const std::vector<WriteSample>& writes, Report* report) {
  std::vector<double> latency;
  for (const WriteSample& s : writes) latency.push_back(s.latency_s);
  NoteTail("write_p90_ms", latency.size(), 90, report);
  report->Set("write_p50_ms", "ms", PercentileMs(latency, 50));
  report->Set("write_p90_ms", "ms", PercentileMs(latency, 90));
}

/// Per-layer metrics of the traced window.
void WindowLayerMetrics(const Window& w, const std::vector<Span>& spans,
                        Report* report) {
  static const std::pair<const char*, const char*> kStages[] = {
      {"engine.probe1_ms", kStage1stIndex},
      {"engine.read1_ms", kStage1stRead},
      {"engine.probe2_ms", kStage2ndIndex},
      {"engine.read2_ms", kStage2ndRead},
      {"engine.colmap_ms", kStageColumnMap},
      {"engine.consolidate_ms", kStageConsolidate}};
  // Pipeline runs only: cache hits carry no stage timing.
  std::vector<const QuerySample*> executed;
  for (const QuerySample& s : w.queries) {
    if (s.ok && !s.from_cache) executed.push_back(&s);
  }
  const double n_exec = std::max<size_t>(executed.size(), 1);
  for (const auto& [metric, stage] : kStages) {
    double total = 0;
    for (const QuerySample* s : executed) {
      auto it = s->stages.find(stage);
      if (it != s->stages.end()) total += it->second;
    }
    report->Set(metric, "ms", 1e3 * total / n_exec);
  }
  double candidates = 0, used2 = 0, new2 = 0;
  for (const QuerySample* s : executed) {
    candidates += s->candidates;
    used2 += s->used_probe2;
    new2 += s->probe2_new;
  }
  report->Set("engine.candidates", "count", candidates / n_exec);
  report->Set("engine.probe2_frac", "fraction", used2 / n_exec);
  report->Set("engine.probe2_new", "count", new2 / n_exec);

  std::vector<double> queue, hit, miss;
  for (const QuerySample& s : w.queries) {
    if (!s.ok) continue;
    queue.push_back(s.queue_s);
    (s.from_cache ? hit : miss).push_back(s.client_s);
  }
  report->Set("service.queue_p50_ms", "ms", 1e3 * Percentile(queue, 50));
  report->Set("service.queue_p99_ms", "ms", 1e3 * Percentile(queue, 99));
  // Client latency minus queue and execute time is the self time of
  // each request's root span.
  double overhead = 0;
  size_t roots = 0;
  const std::map<uint64_t, double> self = SelfSeconds(spans);
  for (const Span& s : spans) {
    if (s.name == "client.request") {
      overhead += self.at(s.id);
      ++roots;
    }
  }
  report->Set("service.overhead_ms", "ms",
              roots == 0 ? 0 : 1e3 * overhead / roots);
  report->Set("gen.lag_p99_ms", "ms", 1e3 * Percentile(w.lag_s, 99));
  report->Set("net.rpc_p50_ms", "ms", 1e3 * Percentile(w.rpc_s, 50));
  report->Set("net.rpc_p99_ms", "ms", 1e3 * Percentile(w.rpc_s, 99));
  report->Set("cache.hit_frac", "fraction",
              queue.empty() ? 0
                            : static_cast<double>(hit.size()) / queue.size());
  report->Set("cache.hit_p50_ms", "ms", 1e3 * Percentile(hit, 50));
  report->Set("cache.miss_p50_ms", "ms", 1e3 * Percentile(miss, 50));

  std::vector<double> by_kind[kNumWriteKinds];
  double pending = 0, journal = 0;
  for (const WriteSample& s : w.writes) {
    by_kind[static_cast<int>(s.kind)].push_back(s.call_s);
    pending += s.pending;
    journal += std::max<int64_t>(s.journal_bytes, 0);
  }
  const double n_writes = std::max<size_t>(w.writes.size(), 1);
  for (int k = 0; k < kNumWriteKinds; ++k) {
    const char* kind = WriteKindName(static_cast<WriteKind>(k));
    report->Set(std::string("fresh.") + kind + "_ms",
                "ms", 1e3 * Percentile(by_kind[k], 50));
  }
  report->Set("fresh.pending_mean", "count", pending / n_writes);
  report->Set("fresh.journal_bytes_per_write", "B", journal / n_writes);

  std::vector<double> merge_s, during;
  for (const MergeSample& m : w.merges) {
    merge_s.push_back(SecondsBetween(m.start, m.end));
    for (const QuerySample& s : w.queries) {
      if (s.ok && s.sent < m.end && s.done > m.start) {
        during.push_back(s.client_s);
      }
    }
  }
  report->Set("fresh.merge_ms", "ms", 1e3 * Percentile(merge_s, 50));
  report->Set("fresh.merges", "count", static_cast<double>(w.merges.size()));
  report->Set("fresh.read_p99_during_merge_ms", "ms",
              1e3 * Percentile(during, 99));
}

/// Re-times every Table 1 query outside-in against `corpus`, checks each
/// recomposition against a service response for the same query, and
/// reports the per-layer split.
void RecomposeMetrics(Served& served, const Reference& ref,
                      const CorpusSet& corpus, Tracer* tracer,
                      uint64_t* next_request, Report* report) {
  Tracer spans(true);
  RecomposeCounts total;
  const EngineOptions& options = served.service->engine_options();
  size_t mismatched = 0;
  for (size_t q = 0; q < ref.columns.size(); ++q) {
    QueryResponse served_response =
        served.service->Run(Request(ref.columns[q]));
    Recomposed r = Recompose(ref.columns[q], corpus, options, &spans,
                             ++*next_request);
    const bool same = served_response.ok() &&
                      ResultDigest(served_response) == r.digest;
    report->Count("check", same);
    mismatched += !same;
    total.index_hits += r.counts.index_hits;
    total.store_gets += r.counts.store_gets;
    total.edge_pairs += r.counts.edge_pairs;
    total.edge_pairs_kept += r.counts.edge_pairs_kept;
  }
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " outside-in recompositions differ from the served answer");
  }
  const std::vector<Span> recorded = spans.spans();
  for (const Span& s : recorded) tracer->Add(s);
  const std::map<std::string, double> self = SelfSecondsByName(recorded);
  const double n = std::max<size_t>(ref.columns.size(), 1);
  auto ms = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : 1e3 * it->second / n;
  };
  report->Set("store.get_ms", "ms", ms("store.get"));
  report->Set("store.gets", "count", total.store_gets / n);
  report->Set("candidate.build_ms", "ms", ms("candidate.build"));
  report->Set("mapper.quick_ms", "ms", ms("mapper.quick"));
  report->Set("potentials.compute_ms", "ms", ms("potentials.compute"));
  report->Set("edges.build_ms", "ms", ms("edges.build"));
  report->Set("edges.pairs", "count", total.edge_pairs / n);
  report->Set("edges.kept_frac", "fraction",
              total.edge_pairs == 0
                  ? 0
                  : static_cast<double>(total.edge_pairs_kept) /
                        total.edge_pairs);
  report->Set("mapper.full_ms", "ms", ms("mapper.full"));
  report->Set("mapper.inference_ms", "ms",
              ms("mapper.full") - ms("potentials.compute") - ms("edges.build"));
  report->Set("query.parse_ms", "ms", ms("query.parse"));
  report->Set("consolidator.consolidate_ms", "ms",
              ms("consolidator.consolidate"));
  report->Set("index.search_ms", "ms", ms("index.search"));
  report->Set("index.hits", "count", total.index_hits / n);
}

/// After the fresh-zipf window: one last merge, then every query twice
/// through the cached service (a miss, then a hit) against an uncached
/// engine over the merged set.
void FreshFinalCheck(Served& served, const Reference& ref, Report* report) {
  Tracer untraced(false);
  MergeSample m = MergeOnce(served.service.get(), &untraced);
  report->Count("merge", m.ok);
  if (!m.ok) report->Fail("final merge failed: " + m.error);
  std::shared_ptr<const CorpusSet> merged = served.service->corpus();
  WwtEngine engine(merged->shard_refs(), &merged->stats(),
                   served.service->engine_options());
  size_t mismatched = 0;
  for (size_t q = 0; q < ref.columns.size(); ++q) {
    const std::string expected = ResultDigest(engine.Execute(ref.columns[q]));
    for (int pass = 0; pass < 2; ++pass) {
      QueryResponse r = served.service->Run(Request(ref.columns[q]));
      const bool same = r.ok() && ResultDigest(r) == expected;
      report->Count("check", same);
      mismatched += !same;
    }
  }
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " post-merge answers differ from the uncached engine");
  }
}

double ArtifactMb(const Served& served) {
  int64_t bytes = FileSize(served.journal);
  const bool merged = std::filesystem::exists("merged.wwtset");
  const std::string manifest_path = merged ? "merged.wwtset" : served.artifact;
  bytes += FileSize(manifest_path);
  StatusOr<SetManifest> manifest = LoadSetManifest(manifest_path);
  if (manifest.ok()) {
    for (const ShardManifestEntry& e : manifest->shards) {
      bytes += FileSize(ResolveShardPath(manifest_path, e.file));
    }
  }
  return bytes / (1024.0 * 1024.0);
}

/// Peak resident set since the last ResetPeakRss: the router's plus its
/// workers'.
double RssMb(const Served& served) {
  double mb = PeakRssMbOf(::getpid());
  for (const auto& w : served.workers) mb += w->PeakRssMb();
  return mb;
}

/// Returns freed heap to the system, then restarts the peak counts of
/// this process and its workers from what they hold now, so that RssMb
/// covers only what runs after this call.
bool ResetPeakRss(const Served& served) {
  ::malloc_trim(0);
  bool ok = ResetPeakRssOf(::getpid());
  for (const auto& w : served.workers) ok = w->ResetPeakRss() && ok;
  return ok;
}

bool NoRss(std::string* error) {
  *error = "cannot reset the peak resident set count";
  return false;
}

void SetupMetrics(const std::vector<SetupTimes>& setups, bool trace,
                  Report* report) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  if (!trace) {
    report->Set("setup_s", "s", median_of(&SetupTimes::total));
    return;
  }
  report->Set("setup.generate_ms", "ms",
              1e3 * median_of(&SetupTimes::generate));
  report->Set("setup.save_ms", "ms", 1e3 * median_of(&SetupTimes::save));
  report->Set("setup.open_ms", "ms", 1e3 * median_of(&SetupTimes::open));
  report->Set("setup.workers_ms", "ms", 1e3 * median_of(&SetupTimes::workers));
  report->Set("setup.first_query_ms", "ms",
              1e3 * median_of(&SetupTimes::first));
}

}  // namespace

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",      "qps",         "query_p50_ms",  "query_p99_ms",
      "write_p50_ms", "write_p90_ms", "rss_mb",       "artifact_mb",
      "map_error_pct", "answer_error_pct"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "engine.probe1_ms", "engine.read1_ms", "engine.probe2_ms",
      "engine.read2_ms", "engine.colmap_ms", "engine.consolidate_ms",
      "engine.candidates", "engine.probe2_frac", "engine.probe2_new",
      "store.get_ms", "store.gets", "candidate.build_ms", "mapper.quick_ms",
      "potentials.compute_ms", "edges.build_ms", "edges.pairs",
      "edges.kept_frac", "mapper.full_ms", "mapper.inference_ms",
      "query.parse_ms", "consolidator.consolidate_ms", "index.search_ms",
      "index.hits", "trace.overhead_frac", "net.rpc_p50_ms",
      "net.rpc_p99_ms", "net.probes", "net.failures", "net.hedges",
      "net.reconnects", "service.queue_p50_ms", "service.queue_p99_ms",
      "service.overhead_ms", "gen.lag_p99_ms", "cache.hit_frac",
      "cache.hits", "cache.misses", "cache.coalesced", "cache.stale_purged",
      "cache.hit_p50_ms", "cache.miss_p50_ms", "fresh.add_ms",
      "fresh.update_ms", "fresh.override_ms", "fresh.tombstone_ms",
      "fresh.pending_mean", "fresh.journal_bytes_per_write",
      "fresh.merge_ms", "fresh.merges", "fresh.read_p99_during_merge_ms",
      "setup.generate_ms", "setup.save_ms", "setup.open_ms",
      "setup.workers_ms", "setup.first_query_ms"};
  return names;
}

bool RunWorkload(const RunConfig& config, Report* report, std::string* error) {
  Layout layout;
  if (config.workload == "serial") {
    layout = Layout::kSerial;
  } else if (config.workload == "routed-open") {
    layout = Layout::kRouted;
  } else if (config.workload == "fresh-zipf") {
    layout = Layout::kFresh;
  } else {
    *error = "unknown workload '" + config.workload + "'";
    return false;
  }

  const Clock::time_point origin = Clock::now();
  // Workload inputs that are not part of the served system's set-up.
  std::vector<WebTable> donors = DonorTables(config);

  Corpus corpus;
  Served served;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    // Tear the previous set-up down service first, workers last.
    served.service.reset();
    served.probes.reset();
    served.workers.clear();
    SetupTimes t;
    Status status = SetUp(config, layout, rep, &corpus, &served, &t);
    if (!status.ok()) {
      *error = "set-up failed: " + status.ToString();
      return false;
    }
    setups.push_back(t);
  }
  SetupMetrics(setups, config.trace, report);

  const Reference ref =
      BuildReference(corpus, served.service->engine_options());
  const int num_queries = static_cast<int>(ref.columns.size());
  const TableId frozen_end = static_cast<TableId>(corpus.store.end_id());
  corpus = Corpus{};  // the reference holds all it needs from it

  if (layout == Layout::kFresh) {
    served.writes = served.service.get();
  } else {
    ServiceOptions options;
    options.num_threads = 1;
    StatusOr<std::unique_ptr<WwtService>> second =
        WwtService::FromSnapshot(served.artifact, options);
    Status enabled = second.ok() ? (*second)->EnableFreshness(served.journal)
                                 : second.status();
    if (!enabled.ok()) {
      *error = "write service: " + enabled.ToString();
      return false;
    }
    served.second = std::move(second).value();
    served.writes = served.second.get();
  }

  // Warm-up, untimed: every query once through the served path, so the
  // window starts with the snapshot pages, worker connections and (on
  // fresh-zipf) the response cache already warm. The queries are
  // submitted all at once, so that every pool thread and every pooled
  // worker connection is in use before the window: after a one-at-a-time
  // warm-up, routed-open's first half second ran about 4x slower.
  std::vector<std::future<QueryResponse>> warming;
  for (const std::vector<std::string>& columns : ref.columns) {
    warming.push_back(served.service->Submit(Request(columns)));
  }
  for (std::future<QueryResponse>& f : warming) {
    report->Count("warmup", f.get().ok());
  }

  Tracer tracer(config.trace);
  Tracer untraced(false);
  uint64_t next_request = 0;
  ShuffledCycle order(num_queries, SubSeed(config.seed, 1));
  Clients clients;
  clients.writer = std::make_unique<Writer>(
      served.writes, std::move(donors), frozen_end, config.seed,
      served.journal);
  for (int r = 0; r < kReaders; ++r) {
    clients.readers.emplace_back(num_queries, kZipfS,
                                 SubSeed(config.seed, 10 + r));
  }

  // One window (or segment of one) of the workload's read traffic.
  auto run_window = [&](int index, double seconds, Tracer* t, Window* w) {
    switch (layout) {
      case Layout::kSerial:
        SerialWindow(served, ref, &order, seconds, t, &next_request, w);
        break;
      case Layout::kRouted:
        OpenLoopWindow(served, ref,
                       PoissonArrivals(kRoutedRate, seconds,
                                       SubSeed(config.seed, 2 + index)),
                       &order, seconds, t, &next_request, w);
        break;
      case Layout::kFresh:
        FreshWindow(served, &clients, ref, seconds, t, &next_request, w);
        break;
    }
  };
  auto qps = [](const Window& w) { return w.completed / w.seconds; };

  // Writes on the second service of serial and routed-open, in slices of
  // kWrites / kSegments, merged every kMergeAt.
  auto write_slice = [&](Tracer* t, Window* w) {
    for (size_t k = 0; k < kWrites / kSegments; ++k) {
      if (clients.writer->count() > 0 &&
          clients.writer->count() % kMergeAt == 0) {
        w->merges.push_back(MergeOnce(served.writes, t));
      }
      WriteSample s = clients.writer->Next(t);
      s.latency_s = s.ok ? s.call_s : HUGE_VAL;
      w->writes.push_back(std::move(s));
    }
  };

  Window window;
  if (!config.trace) {
    // rss_mb is the peak over the window's serving only: set-up, the
    // reference engine and (on serial and routed-open) the write slices
    // on the second service are left out.
    double rss_mb = 0;
    if (layout == Layout::kFresh) {
      if (!ResetPeakRss(served)) return NoRss(error);
      run_window(0, config.seconds, &untraced, &window);
      rss_mb = RssMb(served);
    } else {
      // The second service's merges must not count as served artifacts.
      report->Set("artifact_mb", "MB", ArtifactMb(served));
      for (int seg = 0; seg < kSegments; ++seg) {
        Window part;
        if (!ResetPeakRss(served)) return NoRss(error);
        run_window(seg, config.seconds / kSegments, &untraced, &part);
        rss_mb = std::max(rss_mb, RssMb(served));
        write_slice(&untraced, &part);
        Absorb(std::move(part), &window);
      }
    }
    report->Set("rss_mb", "MB", rss_mb);
    CountOps(window, report);
    CheckGenerator(layout, window, report);
    std::vector<double> latency = Latencies(window.queries);
    NoteTail("query_p99_ms", latency.size(), 99, report);
    report->Set("qps", "1/s", qps(window));
    report->Set("query_p50_ms", "ms", PercentileMs(latency, 50));
    report->Set("query_p99_ms", "ms", PercentileMs(latency, 99));
    if (layout == Layout::kFresh) {
      report->Set("artifact_mb", "MB", ArtifactMb(served));
    }
  } else {
    Window plain;
    run_window(0, config.seconds / 2, &untraced, &plain);
    CountOps(plain, report);
    CheckGenerator(layout, plain, report);
    std::vector<std::shared_ptr<TimedProbe>> timed;
    std::vector<net::RemoteShardStats> rpc_before;
    if (served.probes != nullptr) {
      std::vector<std::shared_ptr<const ShardProbe>> wrapped;
      for (const auto& p : served.probes->Probes()) {
        timed.push_back(std::make_shared<TimedProbe>(p, &tracer));
        wrapped.push_back(timed.back());
      }
      Status attached = served.service->AttachRemoteProbes(wrapped);
      if (!attached.ok()) report->Fail("re-attach: " + attached.ToString());
      rpc_before = served.probes->ShardStats();
    }
    const ResponseCache::Stats cache_before = served.service->cache_stats();
    run_window(kSegments, config.seconds / 2, &tracer, &window);
    const ResponseCache::Stats cache_after = served.service->cache_stats();
    for (const auto& t : timed) {
      for (double s : t->Take()) window.rpc_s.push_back(s);
    }
    if (layout != Layout::kFresh) {
      for (int seg = 0; seg < kSegments; ++seg) write_slice(&tracer, &window);
    }
    CountOps(window, report);
    CheckGenerator(layout, window, report);

    net::RemoteShardStats rpc;
    if (served.probes != nullptr) {
      const std::vector<net::RemoteShardStats> after =
          served.probes->ShardStats();
      for (size_t i = 0; i < after.size(); ++i) {
        rpc.probes += after[i].probes - rpc_before[i].probes;
        rpc.failures += after[i].failures - rpc_before[i].failures;
        rpc.hedges += after[i].hedges - rpc_before[i].hedges;
        rpc.reconnects += after[i].reconnects - rpc_before[i].reconnects;
      }
    }
    report->Set("net.probes", "count", static_cast<double>(rpc.probes));
    report->Set("net.failures", "count", static_cast<double>(rpc.failures));
    report->Set("net.hedges", "count", static_cast<double>(rpc.hedges));
    report->Set("net.reconnects", "count", static_cast<double>(rpc.reconnects));
    auto cache_delta = [&](uint64_t ResponseCache::Stats::*field) {
      return static_cast<double>(cache_after.*field - cache_before.*field);
    };
    report->Set("cache.hits", "count",
                cache_delta(&ResponseCache::Stats::hits));
    report->Set("cache.misses", "count",
                cache_delta(&ResponseCache::Stats::misses));
    report->Set("cache.coalesced", "count",
                cache_delta(&ResponseCache::Stats::coalesced));
    report->Set("cache.stale_purged", "count",
                cache_delta(&ResponseCache::Stats::stale_purged));
    const double untraced_qps = qps(plain);
    report->Set("trace.overhead_frac", "fraction",
                untraced_qps > 0 ? 1.0 - qps(window) / untraced_qps : 0);
  }

  if (layout == Layout::kFresh) FreshFinalCheck(served, ref, report);
  // Re-timed against the frozen set the service answers from (on
  // fresh-zipf, the set the final merge left).
  if (config.trace) {
    RecomposeMetrics(served, ref, *served.service->corpus(), &tracer,
                     &next_request, report);
    WindowLayerMetrics(window, tracer.spans(), report);
    if (!config.trace_path.empty() &&
        !tracer.WriteJsonLines(config.trace_path, origin)) {
      report->Fail("cannot write spans to " + config.trace_path);
    }
  } else {
    WriteMetrics(window.writes, report);
  }
  report->Set("map_error_pct", "%", ref.map_error_pct);
  report->Set("answer_error_pct", "%", ref.answer_error_pct);
  return true;
}

}  // namespace servebench
