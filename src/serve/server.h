// Concurrent request broker over one pipeline::Session.
//
// Many clients submit tagging work against one compiled plan; the Server
// turns that into few, large, batched evaluations:
//
//   Submit(ServeRequest) -> bounded MPMC queue -> dispatcher threads
//     -> per-(semiring, construction) channel
//        - inline-tag eval requests COALESCE: a burst popped from the queue
//          is packed into SoA batch lanes and swept through the plan
//          once (src/eval/batch.h), so the topology walk is paid per burst,
//          not per request — the core of the throughput story. The sweep's
//          buffer holds the plan's live rows only; responses read outputs
//          at their rows (EvalPlan::output_row).
//        - named lanes hold a materialized EvalState (src/eval/delta.h)
//          with every slot's value, because incremental updates (through
//          the dependents index) and explains read interior slots; reads
//          are O(requested facts).
//
// Consistency: the Lane object for a name is stable for its lifetime, and
// every lane guards its state with a shared_mutex — writes (updates AND
// re-materializations) take it exclusively and bump the lane's epoch, reads
// take it shared — so make/update/read on one lane serialize, epochs are
// strictly monotonic per name, and a response always reports values of one
// consistent tagging, named by the epoch in the response. An update racing
// a drop of the same lane linearizes as update-then-drop. Compiled plans
// are immutable and shared through the PlanStore; scratch buffers and lane
// states recycle through per-channel EvalStatePools.
//
// Answers: every request is answered exactly once through the completion
// its submitter passed (Submit's Completion), called on the dispatcher that
// served it; a future-returning Submit wraps that for callers that block.
//
// Ordering: requests on one channel are processed in arrival order within a
// dispatcher burst (with stateless coalesced evals evaluated at burst end —
// they carry their own tags, so reordering them against lane mutations is
// unobservable). A ping ends its burst and is answered after the rest of
// it, so with one dispatcher its completion sees exactly the requests
// queued before it served and counted, and none queued after. With
// num_dispatchers > 1, cross-burst order is not guaranteed; per-lane
// mutations are still serialized by the lane lock.
#ifndef DLCIRC_SERVE_SERVER_H_
#define DLCIRC_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/eval/batch.h"
#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/eval/state_pool.h"
#include "src/explain/explain.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/serve/plan_store.h"
#include "src/util/json.h"
#include "src/util/result.h"

namespace dlcirc {
namespace serve {

/// One client request. Values travel as strings in the textual convention of
/// ParseSemiringValue (the wire format's convention); facts are grounded IDB
/// fact ids (Session::FindFact; kNotFound entries report semiring 0).
struct ServeRequest {
  enum class Kind : uint8_t {
    kEval,      ///< tags (inline) or lane (named) -> values of `facts`
    kMakeLane,  ///< materialize `tags` as named lane `lane` (replaces)
    kUpdate,    ///< apply sparse `delta` to `lane`, return refreshed `facts`
    kDropLane,  ///< forget lane `lane`
    kPing,      ///< fence: completes after everything before it in the queue
    kExplain,   ///< provenance of one fact (tags inline or lane-consistent)
  };
  Kind kind = Kind::kEval;
  std::string semiring = "boolean";
  pipeline::Construction construction = pipeline::Construction::kGrounded;
  std::string lane;                ///< lane name (empty for inline kEval)
  std::vector<std::string> tags;   ///< full tagging, one value per EDB fact
  std::vector<std::pair<uint32_t, std::string>> delta;  ///< var -> new tag
  std::vector<uint32_t> facts;     ///< IDB fact ids to report

  // kExplain only. `facts` must name exactly one fact; the explanation is
  // extracted against the lane's current epoch (under its shared lock, so
  // proof weights match the values that epoch serves) or against inline
  // `tags`.
  std::string explain_mode = "proofs";  ///< proofs | why | sorp | formula
  uint32_t explain_k = 1;               ///< proof trees (proofs mode)
  uint64_t explain_max_trees = 512;     ///< extraction budget (see explain.h)
  std::string explain_fact_name;        ///< rendered fact label (optional)
};

struct ServeResponse {
  bool ok = false;
  std::string error;
  /// Lane epoch the values were read at (1 = freshly materialized, +1 per
  /// update); 0 for stateless inline evaluations and pings.
  uint64_t epoch = 0;
  std::vector<std::string> values;  ///< one per requested fact, in order
  /// Rendered explanation object (explain.h renderers) for kExplain
  /// responses; empty otherwise. Spliced verbatim into the wire response.
  std::string explain_json;
  /// Name of the construction the request's channel serves plans through
  /// (per-request construction reporting, rendered by `dlcirc serve
  /// --explain`); empty for pings and requests rejected before routing.
  std::string construction;
};

struct ServerOptions {
  size_t queue_capacity = 1024;  ///< Submit blocks when the queue is full
  size_t max_coalesce = 64;      ///< max requests popped into one burst
  int num_dispatchers = 1;       ///< broker threads (each owns an Evaluator)
  eval::EvalOptions eval;        ///< per-dispatcher evaluator configuration
  /// Start with dispatchers idle until Resume(); lets tests (and benches)
  /// enqueue a backlog deterministically and observe full coalescing.
  bool paused = false;
};

struct ServerStats {
  uint64_t requests = 0;          ///< taken off the queue by a dispatcher
  uint64_t evals = 0;             ///< inline-tag evaluations served
  uint64_t lane_reads = 0;        ///< lane eval requests served
  uint64_t lane_makes = 0;        ///< lanes materialized (incl. replacements)
  uint64_t updates = 0;           ///< incremental updates applied
  uint64_t update_fallbacks = 0;  ///< of those, full re-evaluations
  uint64_t batches = 0;           ///< coalesced batch sweeps executed
  uint64_t batched_lanes = 0;     ///< inline evals covered by those sweeps
  uint64_t max_batch = 0;         ///< widest single coalesced sweep
  uint64_t explains = 0;          ///< explain requests served
  uint64_t errors = 0;            ///< requests answered with an error
};

struct NetStats;  // src/serve/net.h

/// Prometheus text for every count and level the serving stack keeps: each
/// ServerStats, PlanStoreStats and (when `net` is non-null) NetStats field,
/// plus the queue depth, as counters and gauges under
/// `dlcirc_{net,plan_store,serve}_*` names. The owners' always-on stats are
/// the only store of these counts, so the `metrics` op (this block, then the
/// obs registry's histograms) agrees with the `stats` op by construction.
std::string RenderStatsPrometheus(const ServerStats& server,
                                  size_t queue_depth,
                                  const PlanStoreStats& plans,
                                  const NetStats* net);

/// Batch-size distribution of one channel, for the extended `stats` op. The
/// quantiles come from the channel's obs histogram, so they are only
/// populated while the default obs registry is enabled (dlcirc serve enables
/// it; embedders opt in via obs::Registry::Default().set_enabled(true)).
struct ChannelBatchSummary {
  std::string channel;  ///< "semiring/construction" channel key
  uint64_t sweeps = 0;  ///< coalesced sweeps recorded
  uint64_t p50 = 0;     ///< median requests per sweep
  uint64_t p99 = 0;
  uint64_t max = 0;
};

/// See file comment. The Session must have its EDB loaded; the Server warms
/// the grounding and planner context at construction and thereafter the
/// Session is only touched through the PlanStore's compile lock, so one
/// Session may sit behind one Server plus a single foreground thread doing
/// read-only naming (FindFact/FactName) and "auto" routing
/// (PlanConstruction), which is what `dlcirc serve`, `run` and `explain` do.
class Server {
 public:
  Server(pipeline::Session& session, PlanStore& plans,
         ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// How a request is answered. The completion runs exactly once: on the
  /// dispatcher thread that served the request, possibly while that thread
  /// holds the request's lane lock, so it must be quick. It must not throw
  /// and must not call Submit (a full queue would wait on the very thread
  /// that drains it).
  using Completion = std::function<void(ServeResponse)>;

  /// Enqueues a request; blocks while the queue is at capacity. After
  /// Stop(), calls `done` with a "server stopped" error on this thread
  /// before returning.
  void Submit(ServeRequest request, Completion done);
  /// The same, answered through a future.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Wakes dispatchers when constructed with options.paused.
  void Resume();

  /// Drains the queue, serves everything already accepted, and joins the
  /// dispatchers. Idempotent; called by the destructor.
  void Stop();

  ServerStats stats() const;
  size_t queue_depth() const;

  /// Seconds since construction.
  double uptime_seconds() const {
    return static_cast<double>(obs::NowNs() - start_ns_) * 1e-9;
  }

  /// Per-channel coalescing summaries (see ChannelBatchSummary), sorted by
  /// channel key.
  std::vector<ChannelBatchSummary> ChannelSummaries() const;

 private:
  struct Pending {
    ServeRequest request;
    Completion done;
    /// Submit timestamp (obs clock), or 0 when metrics were disabled at
    /// submit time — the sentinel that keeps disabled requests clockless.
    uint64_t submit_ns = 0;
    /// Channel request-latency histogram, attached once the request is
    /// routed; overall latency always goes to the unlabeled histogram.
    obs::Histogram* channel_latency = nullptr;
    /// Construction name of the routed channel (copied into the response).
    std::string_view construction;
  };

  /// One named lane: a materialized EvalState guarded by a shared_mutex.
  /// The state recycles through the channel's pool when the lane dies.
  template <Semiring S>
  struct Lane {
    mutable std::shared_mutex mu;
    uint64_t epoch = 0;
    typename eval::ObjectPool<eval::EvalState<S>>::Handle state;
  };

  struct ChannelBase {
    virtual ~ChannelBase() = default;
    /// Per-channel obs series (label channel="<key>"), resolved once at
    /// channel creation; the registry owns the histograms.
    obs::Histogram* latency = nullptr;    ///< dlcirc_serve_request_ns
    obs::Histogram* batch_size = nullptr; ///< dlcirc_serve_batch_size
  };

  /// Per-(semiring, construction) serving state. `name` fixes S, so the
  /// owner can static_cast ChannelBase down safely.
  template <Semiring S>
  struct Channel : ChannelBase {
    eval::EvalStatePool<S> pool;
    std::mutex lanes_mu;
    std::unordered_map<std::string, std::shared_ptr<Lane<S>>> lanes;
  };

  void DispatcherLoop(int dispatcher_index);
  bool PopBurst(std::vector<Pending>* burst);
  void ServeBurst(std::vector<Pending>* burst, eval::Evaluator& evaluator);

  template <Semiring S>
  Channel<S>& GetChannel(const std::string& channel_key) {
    std::lock_guard<std::mutex> lock(channels_mu_);
    std::unique_ptr<ChannelBase>& slot = channels_[channel_key];
    if (slot == nullptr) {
      auto chan = std::make_unique<Channel<S>>();
      obs::Registry& reg = obs::Registry::Default();
      const std::string labels = "channel=\"" + channel_key + "\"";
      chan->latency = &reg.GetHistogram(
          "dlcirc_serve_request_ns", labels,
          "End-to-end request latency (submit to response), nanoseconds");
      chan->batch_size = &reg.GetHistogram(
          "dlcirc_serve_batch_size", labels,
          "Inline eval requests coalesced per batch sweep");
      slot = std::move(chan);
    }
    return *static_cast<Channel<S>*>(slot.get());
  }

  /// Every response funnels through here: records end-to-end latency
  /// (overall + per-channel once routed) before calling the completion.
  void Respond(Pending* p, ServeResponse response) {
    if (p->submit_ns != 0) {
      const uint64_t d = obs::NowNs() - p->submit_ns;
      obs_latency_->Record(d);
      if (p->channel_latency != nullptr) p->channel_latency->Record(d);
    }
    response.construction = p->construction;
    p->done(std::move(response));
  }
  void RespondError(Pending* p, std::string error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    Respond(p, {false, std::move(error), 0, {}, {}, {}});
  }

  template <Semiring S>
  void ServeChannelGroup(const std::string& channel_key,
                         std::vector<Pending*>* group,
                         eval::Evaluator& evaluator);

  // --- templated serving internals (instantiated per semiring) -----------

  template <Semiring S>
  Result<std::vector<typename S::Value>> ParseTags(
      const std::vector<std::string>& tags) {
    using Out = Result<std::vector<typename S::Value>>;
    // No tags = the unit tagging (every fact tagged 1), matching the
    // default batch of `dlcirc run`.
    if (tags.empty()) {
      return std::vector<typename S::Value>(num_facts_, S::One());
    }
    if (tags.size() != num_facts_) {
      return Out::Error("tagging has " + std::to_string(tags.size()) +
                        " values; EDB has " + std::to_string(num_facts_) +
                        " facts");
    }
    std::vector<typename S::Value> parsed;
    parsed.reserve(tags.size());
    for (const std::string& t : tags) {
      Result<typename S::Value> v = pipeline::ParseSemiringValue<S>(t);
      if (!v.ok()) return Out::Error(v.error());
      parsed.push_back(std::move(v).value());
    }
    return parsed;
  }

  /// Values of `facts` read straight out of a slot vector.
  template <Semiring S>
  std::vector<std::string> FactValues(const eval::EvalPlan& plan,
                                      const std::vector<eval::SlotValue<S>>& slots,
                                      const std::vector<uint32_t>& facts) {
    std::vector<std::string> out;
    out.reserve(facts.size());
    for (uint32_t f : facts) {
      typename S::Value v =
          f == pipeline::Session::kNotFound
              ? S::Zero()
              : static_cast<typename S::Value>(slots[plan.output_slots()[f]]);
      out.push_back(pipeline::FormatSemiringValue<S>(v));
    }
    return out;
  }

  /// Renders the explanation object for one kExplain request against an
  /// evaluated slot vector (a lane's, under its shared lock, or inline
  /// scratch). The caller owns epoch reporting; this only extracts.
  template <Semiring S>
  Result<std::string> ExplainJson(const pipeline::CompiledPlan& plan,
                                  const std::vector<eval::SlotValue<S>>& slots,
                                  const std::vector<typename S::Value>& assignment,
                                  const ServeRequest& req) {
    using Out = Result<std::string>;
    explain::ExplainLimits limits;
    limits.k = std::max<uint32_t>(1, req.explain_k);
    limits.max_trees = std::max<uint64_t>(1, req.explain_max_trees);
    const uint32_t fact = req.facts[0];
    const std::string name = req.explain_fact_name.empty()
                                 ? "#" + std::to_string(fact)
                                 : req.explain_fact_name;
    const std::string& mode = req.explain_mode;
    if (fact == pipeline::Session::kNotFound) {
      // Unknown facts have the zero polynomial: no proofs, no monomials.
      return Out("{\"mode\":\"" + JsonEscape(mode) + "\",\"fact\":\"" +
                 JsonEscape(name) + "\",\"value\":\"" +
                 JsonEscape(pipeline::FormatSemiringValue<S>(S::Zero())) +
                 "\",\"truncated\":false,\"proofs\":[],\"monomials\":[]}");
    }
    if (mode.empty() || mode == "proofs") {
      auto r = explain::TopKProofs<S>(plan.plan, fact, slots, limits);
      if (!r.ok()) return Out::Error(r.error());
      return Out(explain::RenderTopKJson<S>(r.value(), limits, name,
                                            edb_names_, assignment));
    }
    if (mode == "why" || mode == "sorp") {
      const bool times_idem = mode == "why";
      auto r = explain::WhyProvenance(plan.plan, fact, times_idem,
                                      limits.max_trees);
      if (!r.ok()) return Out::Error(r.error());
      const std::string value = pipeline::FormatSemiringValue<S>(
          static_cast<typename S::Value>(slots[plan.plan.output_slots()[fact]]));
      return Out(explain::RenderWhyJson(r.value(), times_idem,
                                        limits.max_trees, name, value,
                                        edb_names_));
    }
    if (mode == "formula") {
      auto r = explain::ExplainFormula<S>(plan.circuit, fact, assignment,
                                          limits);
      if (!r.ok()) return Out::Error(r.error());
      return Out(explain::RenderFormulaJson<S>(r.value(), name));
    }
    return Out::Error("unknown explain mode `" + mode +
                      "` (want proofs, why, sorp, or formula)");
  }

  bool ValidFacts(const std::vector<uint32_t>& facts, size_t num_outputs,
                  std::string* error) const {
    for (uint32_t f : facts) {
      if (f != pipeline::Session::kNotFound && f >= num_outputs) {
        *error = "fact id " + std::to_string(f) + " out of range (plan has " +
                 std::to_string(num_outputs) + " outputs)";
        return false;
      }
    }
    return true;
  }

  pipeline::Session& session_;
  PlanStore& plans_;
  ServerOptions options_;
  uint32_t num_facts_ = 0;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_push_cv_;  ///< waits for free capacity
  std::condition_variable queue_pop_cv_;   ///< waits for work / resume / stop
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopped_ = false;

  mutable std::mutex channels_mu_;
  std::unordered_map<std::string, std::unique_ptr<ChannelBase>> channels_;

  std::vector<std::unique_ptr<eval::Evaluator>> evaluators_;
  std::vector<std::thread> dispatchers_;

  /// The only store of the ServerStats counts; stats() reads them and
  /// RenderStatsPrometheus renders that snapshot for the `metrics` op.
  std::atomic<uint64_t> requests_{0}, evals_{0}, lane_reads_{0},
      lane_makes_{0}, updates_{0}, update_fallbacks_{0}, batches_{0},
      batched_lanes_{0}, max_batch_{0}, explains_{0}, errors_{0};

  /// EDB fact names by variable id, precomputed at construction (naming the
  /// leaves of proof trees must not touch the Session from dispatchers).
  std::vector<std::string> edb_names_;

  // Distributions (default registry; resolved once in the constructor).
  // They record only while the registry is enabled; counts never go here.
  uint64_t start_ns_ = 0;
  obs::Histogram* obs_queue_wait_ = nullptr;  ///< dlcirc_serve_queue_wait_ns
  obs::Histogram* obs_latency_ = nullptr;     ///< dlcirc_serve_request_ns
  obs::Histogram* obs_lane_wait_ = nullptr;   ///< dlcirc_serve_lane_wait_ns
  obs::Histogram* obs_explain_ns_ = nullptr;  ///< dlcirc_serve_explain_ns
};

// ---------------------------------------------------------------------------
// ServeChannelGroup: one burst's worth of one channel's requests, in order.
// Stateless inline evals accumulate and run as one (tiled) SoA sweep at the
// end; lane operations apply at their position. Defined here so server.cc's
// DispatchSemiring call instantiates it per registered semiring.
// ---------------------------------------------------------------------------

template <Semiring S>
void Server::ServeChannelGroup(const std::string& channel_key,
                               std::vector<Pending*>* group,
                               eval::Evaluator& evaluator) {
  const pipeline::Construction construction = (*group)[0]->request.construction;
  // Report the channel's construction on every response of the group
  // (including errors past this point — the request was already routed).
  // ConstructionName returns a static string_view, safe to hold by view.
  for (Pending* p : *group) p->construction = pipeline::ConstructionName(construction);
  auto compiled =
      plans_.GetOrCompile(session_, pipeline::PlanKey::For<S>(construction));
  if (!compiled.ok()) {
    for (Pending* p : *group) RespondError(p, compiled.error());
    return;
  }
  const pipeline::CompiledPlan& plan = *compiled.value();
  const eval::EvalPlan& eplan = plan.plan;
  Channel<S>& chan = GetChannel<S>(channel_key);
  for (Pending* p : *group) p->channel_latency = chan.latency;

  struct InlineEval {
    Pending* pending;
    std::vector<typename S::Value> tags;
  };
  std::vector<InlineEval> inline_evals;

  auto find_lane = [&](const std::string& name) -> std::shared_ptr<Lane<S>> {
    std::lock_guard<std::mutex> lock(chan.lanes_mu);
    auto it = chan.lanes.find(name);
    return it == chan.lanes.end() ? nullptr : it->second;
  };

  for (Pending* p : *group) {
    ServeRequest& req = p->request;
    std::string error;
    if (!ValidFacts(req.facts, eplan.num_outputs(), &error)) {
      RespondError(p, std::move(error));
      continue;
    }
    switch (req.kind) {
      case ServeRequest::Kind::kEval: {
        if (req.lane.empty()) {
          auto tags = ParseTags<S>(req.tags);
          if (!tags.ok()) {
            RespondError(p, tags.error());
            break;
          }
          inline_evals.push_back({p, std::move(tags).value()});
          break;
        }
        std::shared_ptr<Lane<S>> lane = find_lane(req.lane);
        if (lane == nullptr) {
          RespondError(p, "unknown lane `" + req.lane + "`");
          break;
        }
        const uint64_t wait_start = obs_lane_wait_->StartTimeNs();
        std::shared_lock<std::shared_mutex> read(lane->mu);
        obs_lane_wait_->RecordSince(wait_start);
        lane_reads_.fetch_add(1, std::memory_order_relaxed);
        Respond(p, {true, "", lane->epoch,
                    FactValues<S>(eplan, lane->state->slots, req.facts), {},
                    {}});
        break;
      }
      case ServeRequest::Kind::kMakeLane: {
        if (req.lane.empty()) {
          RespondError(p, "lane name must be non-empty");
          break;
        }
        auto tags = ParseTags<S>(req.tags);
        if (!tags.ok()) {
          RespondError(p, tags.error());
          break;
        }
        // The Lane object per name is stable: re-making an existing lane
        // re-materializes IN PLACE under its exclusive lock rather than
        // swapping in a fresh object. This is what serializes make/update/
        // read per lane — with object replacement, an update that resolved
        // the lane before a concurrent make could apply to a detached
        // state and be acknowledged yet lost. try_emplace under the
        // registry lock settles creation races; losers re-materialize the
        // winner's lane. A freshly created lane is published ALREADY
        // exclusively locked (its mutex taken while the lane is still
        // private, before the registry insert) so no reader can observe
        // the empty, not-yet-materialized state.
        std::shared_ptr<Lane<S>> lane = find_lane(req.lane);
        std::unique_lock<std::shared_mutex> write;
        if (lane == nullptr) {
          auto fresh = std::make_shared<Lane<S>>();
          fresh->state = chan.pool.states.Acquire();
          std::unique_lock<std::shared_mutex> fresh_lock(fresh->mu);
          bool inserted;
          {
            std::lock_guard<std::mutex> lock(chan.lanes_mu);
            auto [it, ok] = chan.lanes.try_emplace(req.lane, fresh);
            inserted = ok;
            lane = it->second;
          }
          if (inserted) {
            write = std::move(fresh_lock);
          } else {
            fresh_lock.unlock();  // lost the race; lock the winner instead
          }
        }
        if (!write.owns_lock()) {
          const uint64_t wait_start = obs_lane_wait_->StartTimeNs();
          write = std::unique_lock<std::shared_mutex>(lane->mu);
          obs_lane_wait_->RecordSince(wait_start);
        }
        evaluator.EvaluateInto<S>(eplan, tags.value(), &lane->state->slots);
        lane->state->assignment = std::move(tags).value();
        ++lane->epoch;
        lane_makes_.fetch_add(1, std::memory_order_relaxed);
        Respond(p, {true, "", lane->epoch,
                    FactValues<S>(eplan, lane->state->slots, req.facts), {},
                    {}});
        break;
      }
      case ServeRequest::Kind::kUpdate: {
        std::shared_ptr<Lane<S>> lane = find_lane(req.lane);
        if (lane == nullptr) {
          RespondError(p, "unknown lane `" + req.lane + "`");
          break;
        }
        eval::TagDelta<S> delta;
        delta.reserve(req.delta.size());
        bool bad = false;
        for (const auto& [var, text] : req.delta) {
          if (var >= num_facts_) {
            RespondError(p, "tag update names EDB variable x" +
                                std::to_string(var) + "; EDB has " +
                                std::to_string(num_facts_) + " facts");
            bad = true;
            break;
          }
          Result<typename S::Value> v = pipeline::ParseSemiringValue<S>(text);
          if (!v.ok()) {
            RespondError(p, v.error());
            bad = true;
            break;
          }
          delta.push_back({var, std::move(v).value()});
        }
        if (bad) break;
        eval::IncrementalEvaluator incremental(evaluator,
                                               eval::DeltaOptions::For<S>());
        const uint64_t wait_start = obs_lane_wait_->StartTimeNs();
        std::unique_lock<std::shared_mutex> write(lane->mu);
        obs_lane_wait_->RecordSince(wait_start);
        eval::DeltaStats st =
            incremental.Update<S>(eplan, &*lane->state, delta);
        ++lane->epoch;
        updates_.fetch_add(1, std::memory_order_relaxed);
        if (st.full_fallback) {
          update_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        Respond(p, {true, "", lane->epoch,
                    FactValues<S>(eplan, lane->state->slots, req.facts), {},
                    {}});
        break;
      }
      case ServeRequest::Kind::kDropLane: {
        bool existed;
        {
          std::lock_guard<std::mutex> lock(chan.lanes_mu);
          existed = chan.lanes.erase(req.lane) > 0;
        }
        if (existed) {
          Respond(p, {true, "", 0, {}, {}, {}});
        } else {
          RespondError(p, "unknown lane `" + req.lane + "`");
        }
        break;
      }
      case ServeRequest::Kind::kPing:  // ServeBurst answers pings itself
        break;
      case ServeRequest::Kind::kExplain: {
        if (req.facts.size() != 1) {
          RespondError(p, "explain takes exactly one fact (got " +
                              std::to_string(req.facts.size()) + ")");
          break;
        }
        const uint64_t t0 = obs_explain_ns_->StartTimeNs();
        auto finish = [&](uint64_t epoch,
                          const std::vector<eval::SlotValue<S>>& slots,
                          const std::vector<typename S::Value>& assignment) {
          Result<std::string> ejson =
              ExplainJson<S>(plan, slots, assignment, req);
          if (!ejson.ok()) {
            RespondError(p, ejson.error());
            return;
          }
          explains_.fetch_add(1, std::memory_order_relaxed);
          obs_explain_ns_->RecordSince(t0);
          Respond(p, {true, "", epoch,
                      FactValues<S>(eplan, slots, req.facts),
                      std::move(ejson).value(), {}});
        };
        if (req.lane.empty()) {
          auto tags = ParseTags<S>(req.tags);
          if (!tags.ok()) {
            RespondError(p, tags.error());
            break;
          }
          auto scratch = chan.pool.states.Acquire();
          evaluator.EvaluateInto<S>(eplan, tags.value(), &scratch->slots);
          finish(0, scratch->slots, tags.value());
          break;
        }
        std::shared_ptr<Lane<S>> lane = find_lane(req.lane);
        if (lane == nullptr) {
          RespondError(p, "unknown lane `" + req.lane + "`");
          break;
        }
        const uint64_t wait_start = obs_lane_wait_->StartTimeNs();
        std::shared_lock<std::shared_mutex> read(lane->mu);
        obs_lane_wait_->RecordSince(wait_start);
        // Extraction runs under the shared lock: the proof weights read
        // from the lane's slots and the reported epoch name one consistent
        // tagging — an update cannot slide in between value and proof.
        finish(lane->epoch, lane->state->slots, lane->state->assignment);
        break;
      }
    }
  }

  if (inline_evals.empty()) return;

  // The coalesced sweep: all inline tags of this burst through the plan at
  // once. Bool-valued semirings take the bit-packed kernel (64 lanes per
  // machine word — one word op evaluates a gate under the whole burst);
  // everything else goes through the SoA kernel into a pooled buffer that
  // holds only the plan's live rows (responses read EvalPlan::output_row),
  // tiled by SweepInTiles.
  std::vector<std::vector<typename S::Value>> assignments;
  assignments.reserve(inline_evals.size());
  for (InlineEval& e : inline_evals) assignments.push_back(std::move(e.tags));
  const size_t B = assignments.size();
  // Counters move before the responses do: a client whose completion ran
  // must also see the sweep in stats(). max_batch tracks coalescing
  // width (requests amortized per group), not tile width — it is the
  // statistic the throughput story rests on.
  evals_.fetch_add(B, std::memory_order_relaxed);
  batched_lanes_.fetch_add(B, std::memory_order_relaxed);
  uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (B > prev && !max_batch_.compare_exchange_weak(
                         prev, B, std::memory_order_relaxed)) {
  }
  chan.batch_size->Record(B);
  obs::TraceSpan sweep_span("serve", "batch_eval");
  sweep_span.set_args_json("\"channel\":\"" + channel_key +
                           "\",\"lanes\":" + std::to_string(B));
  if constexpr (std::is_same_v<typename S::Value, bool>) {
    std::vector<std::vector<bool>> outputs =
        eval::EvaluateBooleanBitBatch(evaluator, eplan, assignments);
    batches_.fetch_add(1, std::memory_order_relaxed);
    for (size_t b = 0; b < B; ++b) {
      Pending* p = inline_evals[b].pending;
      std::vector<std::string> values;
      values.reserve(p->request.facts.size());
      for (uint32_t f : p->request.facts) {
        bool v = f == pipeline::Session::kNotFound ? false : outputs[b][f];
        values.push_back(pipeline::FormatSemiringValue<S>(v));
      }
      Respond(p, {true, "", 0, std::move(values), {}, {}});
    }
  } else {
    auto buffer = chan.pool.batch_buffers.Acquire();
    eval::SweepInTiles<S>(
        evaluator, eplan, assignments, eval::kTileBudgetBytes, &*buffer,
        [&](size_t start, size_t lanes,
            const std::vector<eval::SlotValue<S>>& rows) {
          batches_.fetch_add(1, std::memory_order_relaxed);
          for (size_t b = 0; b < lanes; ++b) {
            Pending* p = inline_evals[start + b].pending;
            std::vector<std::string> values;
            values.reserve(p->request.facts.size());
            for (uint32_t f : p->request.facts) {
              typename S::Value v =
                  f == pipeline::Session::kNotFound
                      ? S::Zero()
                      : static_cast<typename S::Value>(
                            rows[static_cast<size_t>(eplan.output_row(f)) *
                                     lanes +
                                 b]);
              values.push_back(pipeline::FormatSemiringValue<S>(v));
            }
            Respond(p, {true, "", 0, std::move(values), {}, {}});
          }
        });
  }
}

}  // namespace serve
}  // namespace dlcirc

#endif  // DLCIRC_SERVE_SERVER_H_
