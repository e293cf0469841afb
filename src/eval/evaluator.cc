#include "src/eval/evaluator.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"

namespace dlcirc {
namespace eval {

EvalPlan EvalPlan::Build(const Circuit& circuit) {
  const std::vector<Gate>& gates = circuit.gates();
  const std::vector<bool>& cone = circuit.OutputCone();

  // Layer of each cone gate: leaves at 0, internal gates one above their
  // deepest child. The arena is topologically ordered, so one forward pass.
  std::vector<uint32_t> layer(gates.size(), 0);
  uint32_t num_layers = 0;
  size_t cone_size = 0;
  for (size_t i = 0; i < gates.size(); ++i) {
    if (!cone[i]) continue;
    ++cone_size;
    const Gate& g = gates[i];
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      layer[i] = 1 + std::max(layer[g.a], layer[g.b]);
      num_layers = std::max(num_layers, layer[i]);
    }
  }
  ++num_layers;  // layers are 0..max inclusive

  EvalPlan plan;
  plan.num_vars_ = circuit.num_vars();

  // Counting sort of cone gates by layer; slots within a layer keep the
  // original (topological) order, though any order would do.
  std::vector<uint32_t> counts(num_layers, 0);
  for (size_t i = 0; i < gates.size(); ++i) {
    if (cone[i]) ++counts[layer[i]];
  }
  plan.layer_starts_.assign(num_layers + 1, 0);
  for (uint32_t l = 0; l < num_layers; ++l) {
    plan.layer_starts_[l + 1] = plan.layer_starts_[l] + counts[l];
    plan.max_layer_width_ = std::max<size_t>(plan.max_layer_width_, counts[l]);
  }

  std::vector<uint32_t> slot_of(gates.size(), 0);
  std::vector<uint32_t> cursor(plan.layer_starts_.begin(),
                               plan.layer_starts_.end() - 1);
  plan.gates_.resize(cone_size);
  plan.layer_of_.resize(cone_size);
  for (size_t i = 0; i < gates.size(); ++i) {
    if (!cone[i]) continue;
    uint32_t slot = cursor[layer[i]]++;
    slot_of[i] = slot;
    plan.layer_of_[slot] = layer[i];
    Gate g = gates[i];
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      g.a = slot_of[g.a];  // children precede i, so already assigned
      g.b = slot_of[g.b];
    }
    plan.gates_[slot] = g;
  }

  plan.output_slots_.reserve(circuit.outputs().size());
  for (GateId o : circuit.outputs()) plan.output_slots_.push_back(slot_of[o]);

  // Reverse adjacency (slot -> dependents), CSR by counting sort. Computed
  // here, alongside the layers, so every plan can serve incremental updates
  // (src/eval/delta.h) without a second compilation step.
  plan.dep_starts_.assign(cone_size + 1, 0);
  for (const Gate& g : plan.gates_) {
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      ++plan.dep_starts_[g.a + 1];
      ++plan.dep_starts_[g.b + 1];
    }
  }
  for (size_t s = 1; s <= cone_size; ++s) {
    plan.dep_starts_[s] += plan.dep_starts_[s - 1];
  }
  plan.dependents_.resize(plan.dep_starts_[cone_size]);
  std::vector<uint32_t> dep_cursor(plan.dep_starts_.begin(),
                                   plan.dep_starts_.end() - 1);
  // Variable -> input-slot index over the variables read (see
  // input_vars()): the (variable, slot) pairs sorted, then grouped.
  std::vector<uint64_t> inputs;
  for (uint32_t s = 0; s < cone_size; ++s) {
    const Gate& g = plan.gates_[s];
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      plan.dependents_[dep_cursor[g.a]++] = s;
      plan.dependents_[dep_cursor[g.b]++] = s;
    } else if (g.kind == GateKind::kInput) {
      inputs.push_back(uint64_t{g.a} << 32 | s);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  plan.var_starts_.clear();
  plan.var_input_slots_.reserve(inputs.size());
  for (uint64_t input : inputs) {
    const auto var = static_cast<uint32_t>(input >> 32);
    if (plan.input_vars_.empty() || plan.input_vars_.back() != var) {
      plan.input_vars_.push_back(var);
      plan.var_starts_.push_back(
          static_cast<uint32_t>(plan.var_input_slots_.size()));
    }
    plan.var_input_slots_.push_back(static_cast<uint32_t>(input));
  }
  plan.var_starts_.push_back(
      static_cast<uint32_t>(plan.var_input_slots_.size()));
  plan.DeriveRows();
  return plan;
}

void EvalPlan::DeriveRows() {
  const size_t n = gates_.size();
  const auto is_op = [](const Gate& g) {
    return g.kind == GateKind::kPlus || g.kind == GateKind::kTimes;
  };
  // last_reader[s]: the highest slot that reads s, s itself when none does,
  // kKeep for outputs. Slots are layer-ordered, so the last reader sits in
  // the last layer that reads s.
  constexpr uint32_t kKeep = UINT32_MAX;
  std::vector<uint32_t> last_reader(n);
  for (uint32_t s = 0; s < n; ++s) {
    last_reader[s] = s;
    const Gate& g = gates_[s];
    if (is_op(g)) last_reader[g.a] = last_reader[g.b] = s;
  }
  for (uint32_t s : output_slots_) last_reader[s] = kKeep;

  // Rows freed during layer L join the free list when layer L+1 starts, so
  // no gate writes a row that its own layer still reads. A row a gate may
  // free is stored unconditionally and counted only if the gate is its last
  // reader: whether it is depends on the data, and a branch on it would
  // mispredict often. A layer frees distinct rows, so n + 1 entries do.
  row_of_.resize(n);
  num_rows_ = 0;
  std::vector<uint32_t> free_rows, freed(n + 1);
  size_t num_freed = 0;
  for (size_t l = 0; l + 1 < layer_starts_.size(); ++l) {
    free_rows.insert(free_rows.end(), freed.begin(),
                     freed.begin() + num_freed);
    num_freed = 0;
    for (uint32_t s = layer_starts_[l]; s < layer_starts_[l + 1]; ++s) {
      if (free_rows.empty()) {
        row_of_[s] = static_cast<uint32_t>(num_rows_++);
      } else {
        row_of_[s] = free_rows.back();
        free_rows.pop_back();
      }
      freed[num_freed] = row_of_[s];
      num_freed += last_reader[s] == s;
      const Gate& g = gates_[s];
      if (!is_op(g)) continue;
      freed[num_freed] = row_of_[g.a];
      num_freed += last_reader[g.a] == s;
      freed[num_freed] = row_of_[g.b];
      num_freed += (g.b != g.a) & (last_reader[g.b] == s);
    }
  }
}

size_t EvalPlan::InputVarIndex(uint32_t v) const {
  const auto it = std::lower_bound(input_vars_.begin(), input_vars_.end(), v);
  if (it == input_vars_.end() || *it != v) return input_vars_.size();
  return static_cast<size_t>(it - input_vars_.begin());
}

// Persistent worker pool with a generation barrier: Run publishes a task
// under the mutex, workers grab chunks from an atomic cursor, and the caller
// participates then waits until every worker has retired the generation.
class Evaluator::Pool {
 public:
  explicit Pool(int num_workers) {
    workers_.reserve(num_workers);
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void Run(size_t begin, size_t end, size_t grain,
           const std::function<void(size_t, size_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      end_ = end;
      grain_ = grain;
      next_.store(begin, std::memory_order_relaxed);
      busy_workers_ = workers_.size();
      ++generation_;
    }
    cv_start_.notify_all();
    Drain(fn, end, grain);
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return busy_workers_ == 0; });
  }

 private:
  void Drain(const std::function<void(size_t, size_t)>& fn, size_t end,
             size_t grain) {
    for (;;) {
      size_t b = next_.fetch_add(grain, std::memory_order_relaxed);
      if (b >= end) break;
      fn(b, std::min(b + grain, end));
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::function<void(size_t, size_t)>* fn = fn_;
      size_t end = end_, grain = grain_;
      lock.unlock();
      Drain(*fn, end, grain);
      lock.lock();
      if (--busy_workers_ == 0) cv_done_.notify_all();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(size_t, size_t)>* fn_ = nullptr;
  size_t end_ = 0, grain_ = 1;
  std::atomic<size_t> next_{0};
  size_t busy_workers_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

Evaluator::Evaluator(EvalOptions options) : options_(options) {
  num_threads_ = options_.num_threads;
  if (num_threads_ <= 0) {
    num_threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads_ <= 0) num_threads_ = 1;
  }
}

Evaluator::~Evaluator() = default;

void Evaluator::ParallelFor(size_t begin, size_t end, size_t grain,
                            const std::function<void(size_t, size_t)>& fn) const {
  if (begin >= end) return;
  if (num_threads_ <= 1 || end - begin <= grain) {
    fn(begin, end);
    return;
  }
  if (!pool_) pool_ = std::make_unique<Pool>(num_threads_ - 1);
  pool_->Run(begin, end, grain, fn);
}

void Evaluator::ForEachLayer(
    const EvalPlan& plan, size_t work_per_gate,
    const std::function<void(size_t, size_t)>& eval_range) const {
  // Every full-plan walk — EvaluateInto, the SoA batch kernels, and the
  // bit-packed Boolean kernel — funnels through here, so one timer covers
  // all sweep flavors. Resolved once; free while the registry is disabled.
  static obs::Histogram& sweep_ns = obs::Registry::Default().GetHistogram(
      "dlcirc_eval_sweep_ns", "",
      "One full layered plan sweep (any batch width), nanoseconds");
  obs::ScopedTimer sweep_timer(sweep_ns);
  if (work_per_gate == 0) work_per_gate = 1;
  if (num_threads_ <= 1 ||
      plan.num_slots() * work_per_gate < options_.min_parallel_work) {
    eval_range(0, plan.num_slots());
    return;
  }
  size_t grain =
      std::max<size_t>(1, options_.min_work_per_chunk / work_per_gate);
  const std::vector<uint32_t>& starts = plan.layer_starts();
  for (size_t l = 0; l + 1 < starts.size(); ++l) {
    size_t begin = starts[l], end = starts[l + 1];
    if (end - begin <= grain) {
      // Narrow layer: the barrier would cost more than it buys.
      eval_range(begin, end);
    } else {
      ParallelFor(begin, end, grain, eval_range);
    }
  }
}

}  // namespace eval
}  // namespace dlcirc
