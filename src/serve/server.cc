#include "src/serve/server.h"

#include <algorithm>
#include <sstream>

#include "src/serve/net.h"
#include "src/util/check.h"

namespace dlcirc {
namespace serve {

std::string RenderStatsPrometheus(const ServerStats& server,
                                  size_t queue_depth,
                                  const PlanStoreStats& plans,
                                  const NetStats* net) {
  std::ostringstream out;
  auto emit = [&out](const char* name, const char* type, uint64_t value,
                     const char* help) {
    out << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
        << type << '\n'
        << name << ' ' << value << '\n';
  };
  if (net != nullptr) {
    emit("dlcirc_net_accepted_total", "counter", net->accepted,
         "TCP connections admitted");
    emit("dlcirc_net_rejected_total", "counter", net->rejected,
         "TCP connections refused at the connection cap");
    emit("dlcirc_net_closed_total", "counter", net->closed,
         "Admitted TCP connections since closed");
    emit("dlcirc_net_lines_total", "counter", net->lines,
         "Request lines received");
    emit("dlcirc_net_oversized_total", "counter", net->oversized,
         "Request lines dropped for exceeding the line limit");
    emit("dlcirc_net_overflowed_total", "counter", net->overflowed,
         "Connections closed for write-buffer overflow");
    emit("dlcirc_net_connections", "gauge", net->active,
         "Open TCP connections");
  }
  emit("dlcirc_plan_store_hits_total", "counter", plans.hits,
       "Plan lookups served from memory");
  emit("dlcirc_plan_store_compiles_total", "counter", plans.compiles,
       "Cold compiles through a Session");
  emit("dlcirc_plan_store_snapshot_loads_total", "counter",
       plans.snapshot_loads, "Warm starts off a snapshot file");
  emit("dlcirc_plan_store_snapshot_saves_total", "counter",
       plans.snapshot_saves, "Compiled plans persisted to disk");
  emit("dlcirc_plan_store_evictions_total", "counter", plans.evictions,
       "Cold plans evicted to the snapshot dir");
  emit("dlcirc_plan_store_resident", "gauge", plans.resident,
       "Plans held in memory");
  emit("dlcirc_serve_requests_total", "counter", server.requests,
       "Requests taken off the serve queue");
  emit("dlcirc_serve_evals_total", "counter", server.evals,
       "Inline-tag evaluations served");
  emit("dlcirc_serve_lane_reads_total", "counter", server.lane_reads,
       "Lane eval requests served");
  emit("dlcirc_serve_lane_makes_total", "counter", server.lane_makes,
       "Lanes materialized (replacements included)");
  emit("dlcirc_serve_updates_total", "counter", server.updates,
       "Incremental lane updates applied");
  emit("dlcirc_serve_update_fallbacks_total", "counter",
       server.update_fallbacks, "Updates that ran a full re-evaluation");
  emit("dlcirc_serve_batches_total", "counter", server.batches,
       "Coalesced batch sweeps executed");
  emit("dlcirc_serve_batched_lanes_total", "counter", server.batched_lanes,
       "Inline evals covered by batch sweeps");
  emit("dlcirc_serve_max_batch", "gauge", server.max_batch,
       "Widest single coalesced sweep");
  emit("dlcirc_serve_explains_total", "counter", server.explains,
       "Explain requests served");
  emit("dlcirc_serve_errors_total", "counter", server.errors,
       "Requests answered with an error");
  emit("dlcirc_serve_queue_depth", "gauge", queue_depth,
       "Requests waiting in the serve queue");
  return out.str();
}

Server::Server(pipeline::Session& session, PlanStore& plans,
               ServerOptions options)
    : session_(session), plans_(plans), options_(options) {
  DLCIRC_CHECK(session.has_database()) << "Server needs a loaded EDB";
  DLCIRC_CHECK_GE(options_.queue_capacity, 1u);
  DLCIRC_CHECK_GE(options_.max_coalesce, 1u);
  DLCIRC_CHECK_GE(options_.num_dispatchers, 1);
  num_facts_ = session.db().num_facts();
  paused_ = options_.paused;
  start_ns_ = obs::NowNs();
  obs::Registry& reg = obs::Registry::Default();
  obs_queue_wait_ = &reg.GetHistogram(
      "dlcirc_serve_queue_wait_ns", "",
      "Time from submit to dispatcher pop, nanoseconds");
  obs_latency_ = &reg.GetHistogram(
      "dlcirc_serve_request_ns", "",
      "End-to-end request latency (submit to response), nanoseconds");
  obs_lane_wait_ = &reg.GetHistogram(
      "dlcirc_serve_lane_wait_ns", "",
      "Lane lock acquisition wait (epoch serialization), nanoseconds");
  obs_explain_ns_ = &reg.GetHistogram(
      "dlcirc_serve_explain_ns", "",
      "Explanation extraction latency (proofs/why/formula), nanoseconds");
  // Warm every lazily-computed Session cache while still single-threaded;
  // afterwards dispatchers touch the Session only under the PlanStore's
  // compile lock, and foreground naming (FindFact/FactName) and "auto"
  // routing (PlanConstruction) are read-only. Compile consults the planner
  // context for the finite-RPQ, bounded and Theorem 5.6/5.7 channels, so it
  // must exist before the dispatcher threads do.
  session.grounded();
  session.planner_context();
  // Proof-tree leaves are named by EDB variable; snapshot the names here so
  // explain requests never touch the Session from dispatcher threads.
  edb_names_.reserve(num_facts_);
  for (uint32_t v = 0; v < num_facts_; ++v) {
    edb_names_.push_back(session.EdbFactName(v));
  }
  evaluators_.reserve(options_.num_dispatchers);
  dispatchers_.reserve(options_.num_dispatchers);
  for (int i = 0; i < options_.num_dispatchers; ++i) {
    evaluators_.push_back(std::make_unique<eval::Evaluator>(options_.eval));
  }
  for (int i = 0; i < options_.num_dispatchers; ++i) {
    dispatchers_.emplace_back([this, i] { DispatcherLoop(i); });
  }
}

Server::~Server() { Stop(); }

void Server::Submit(ServeRequest request, Completion done) {
  Pending pending;
  pending.request = std::move(request);
  pending.done = std::move(done);
  pending.submit_ns = obs_latency_->StartTimeNs();  // 0 while disabled
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_push_cv_.wait(lock, [this] {
    return stopped_ || queue_.size() < options_.queue_capacity;
  });
  if (stopped_) {
    lock.unlock();
    pending.done({false, "server stopped", 0, {}, {}, {}});
    return;
  }
  queue_.push_back(std::move(pending));
  lock.unlock();
  queue_pop_cv_.notify_one();
}

std::future<ServeResponse> Server::Submit(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  Submit(std::move(request),
         [promise](ServeResponse r) { promise->set_value(std::move(r)); });
  return future;
}

void Server::Resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_pop_cv_.notify_all();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopped_) return;
    stopped_ = true;
    paused_ = false;  // a paused server still drains its backlog on Stop
  }
  queue_pop_cv_.notify_all();
  queue_push_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.evals = evals_.load(std::memory_order_relaxed);
  s.lane_reads = lane_reads_.load(std::memory_order_relaxed);
  s.lane_makes = lane_makes_.load(std::memory_order_relaxed);
  s.updates = updates_.load(std::memory_order_relaxed);
  s.update_fallbacks = update_fallbacks_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_lanes = batched_lanes_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.explains = explains_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

std::vector<ChannelBatchSummary> Server::ChannelSummaries() const {
  std::vector<ChannelBatchSummary> out;
  {
    std::lock_guard<std::mutex> lock(channels_mu_);
    out.reserve(channels_.size());
    for (const auto& [key, chan] : channels_) {
      const obs::LocalHistogram snap = chan->batch_size->Snapshot();
      ChannelBatchSummary s;
      s.channel = key;
      s.sweeps = snap.count();
      s.p50 = snap.Quantile(0.5);
      s.p99 = snap.Quantile(0.99);
      s.max = snap.max();
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChannelBatchSummary& a, const ChannelBatchSummary& b) {
              return a.channel < b.channel;
            });
  return out;
}

bool Server::PopBurst(std::vector<Pending>* burst) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_pop_cv_.wait(lock, [this] {
    return stopped_ || (!paused_ && !queue_.empty());
  });
  if (queue_.empty()) return false;  // stopped and drained
  // A ping ends its burst: it is answered after everything popped before it
  // and before anything queued behind it is taken off the queue.
  burst->clear();
  while (!queue_.empty() && burst->size() < options_.max_coalesce) {
    burst->push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (burst->back().request.kind == ServeRequest::Kind::kPing) break;
  }
  requests_.fetch_add(burst->size(), std::memory_order_relaxed);
  lock.unlock();
  for (const Pending& p : *burst) {
    if (p.submit_ns != 0) {
      const uint64_t wait_ns = obs::NowNs() - p.submit_ns;
      obs_queue_wait_->Record(wait_ns);
      obs::TraceRecorder::Default().Record("serve", "queue_wait", p.submit_ns,
                                           wait_ns);
    }
  }
  // A burst can free many capacity slots at once; wake every blocked Submit.
  queue_push_cv_.notify_all();
  return true;
}

void Server::DispatcherLoop(int dispatcher_index) {
  eval::Evaluator& evaluator = *evaluators_[dispatcher_index];
  std::vector<Pending> burst;
  while (PopBurst(&burst)) ServeBurst(&burst, evaluator);
}

void Server::ServeBurst(std::vector<Pending>* burst,
                        eval::Evaluator& evaluator) {
  // Group by (semiring, construction) preserving burst order within each
  // group. Groups are independent channels, so cross-group order within a
  // burst is unobservable.
  std::vector<std::string> group_order;
  std::unordered_map<std::string, std::vector<Pending*>> groups;
  // PopBurst ends a burst at its first ping, so a burst holds at most one,
  // and only as its last request.
  Pending* fence = nullptr;
  obs::TraceSpan coalesce_span("serve", "coalesce");
  coalesce_span.set_args_json("\"burst\":" + std::to_string(burst->size()));
  for (Pending& p : *burst) {
    const ServeRequest& req = p.request;
    if (req.kind == ServeRequest::Kind::kPing) {
      // A fence, not an evaluation: it never forces a channel (or a plan
      // compile) into existence, and it is answered only after every other
      // request of its burst has been served.
      fence = &p;
      continue;
    }
    std::string key =
        req.semiring + "/" +
        std::string(pipeline::ConstructionName(req.construction));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) group_order.push_back(it->first);
    it->second.push_back(&p);
  }
  coalesce_span.End();
  for (const std::string& key : group_order) {
    std::vector<Pending*>& group = groups[key];
    const std::string& semiring = group[0]->request.semiring;
    obs::TraceSpan group_span("serve", "channel_group");
    group_span.set_args_json("\"channel\":\"" + key +
                             "\",\"requests\":" + std::to_string(group.size()));
    bool known = pipeline::DispatchSemiring(semiring, [&]<Semiring S>() {
      ServeChannelGroup<S>(key, &group, evaluator);
    });
    if (!known) {
      for (Pending* p : group) {
        RespondError(p, "unknown semiring `" + semiring + "`");
      }
    }
  }
  if (fence != nullptr) {
    obs::TraceSpan respond_span("serve", "respond_ping");
    Respond(fence, {true, "", 0, {}, {}, {}});
  }
}

}  // namespace serve
}  // namespace dlcirc
