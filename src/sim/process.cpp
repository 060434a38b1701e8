#include "sim/process.hpp"

#include "sim/parallel_executor.hpp"
#include "support/assert.hpp"

namespace lyra::sim {

Process::Process(Simulation* sim, Transport* transport, NodeId id)
    : sim_(sim), transport_(transport), id_(id) {
  LYRA_ASSERT(sim != nullptr && transport != nullptr,
              "process needs a simulation and a transport");
}

Process::~Process() {
  for (const auto& [token, event_id] : live_timers_) sim_->cancel(event_id);
  if (pump_scheduled_) sim_->cancel(pump_event_);
}

void Process::deliver(Envelope env) {
  if (!pump_scheduled_ && inbox_.empty() &&
      sim_->now() >= cpu_busy_until_) {
    // Idle CPU, nothing queued: handle inline without a pump event. This
    // is the common case and halves the event count of a saturated run.
    ++messages_processed_;
    on_message(env);
    return;
  }
  inbox_.push_back(std::move(env));
  schedule_pump();
}

void Process::schedule_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  const TimeNs at = std::max(sim_->now(), cpu_busy_until_);
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kSchedulePump;
    e.proc = this;
    e.t = at;
    log->push_back(std::move(e));
    return;
  }
  apply_schedule_pump(at);
}

void Process::apply_schedule_pump(TimeNs at) {
  pump_event_ = sim_->schedule_for(std::max(at, sim_->now()), this, 0);
}

void Process::pump() {
  pump_scheduled_ = false;
  if (inbox_.empty()) return;
  if (sim_->now() < cpu_busy_until_) {
    // The CPU picked up extra work (e.g. a timer fired) since this pump was
    // scheduled; try again when it frees up.
    schedule_pump();
    return;
  }
  Envelope env = std::move(inbox_.front());
  inbox_.pop_front();
  ++messages_processed_;
  on_message(env);
  if (!inbox_.empty()) schedule_pump();
}

void Process::send(NodeId to, PayloadPtr payload) {
  ++messages_sent_;
  bytes_sent_ += payload->wire_size();
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kSend;
    e.from = id_;
    e.to = to;
    e.transport = transport_;
    e.payload = std::move(payload);
    log->push_back(std::move(e));
    return;
  }
  transport_->send(id_, to, std::move(payload));
}

void Process::broadcast(PayloadPtr payload) {
  const std::size_t n = transport_->node_count();
  messages_sent_ += n;
  bytes_sent_ += n * payload->wire_size();
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kSendAll;
    e.from = id_;
    e.transport = transport_;
    e.payload = std::move(payload);
    log->push_back(std::move(e));
    return;
  }
  transport_->send_all(id_, std::move(payload));
}

void Process::charge(TimeNs cost) {
  if (cost <= 0) return;
  cpu_time_used_ += cost;
  cpu_busy_until_ = std::max(cpu_busy_until_, sim_->now()) + cost;
}

Process::TimerId Process::set_timer(TimeNs delay, std::function<void()> fn) {
  const TimerId token = next_timer_token_++;
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kSetTimer;
    e.proc = this;
    e.token = token;
    e.t = delay;
    e.fn = std::move(fn);
    log->push_back(std::move(e));
    return token;
  }
  apply_set_timer(token, delay, std::move(fn));
  return token;
}

void Process::apply_set_timer(TimerId token, TimeNs delay,
                              std::function<void()> fn) {
  live_timers_.emplace(
      token, sim_->schedule_for(sim_->now() + delay, this, token,
                                std::move(fn)));
}

void Process::run_timer(TimerId token, std::function<void()>& fn) {
  // Drop the bookkeeping entry before running: fn may re-arm a timer. Under
  // parallel execution this runs on a worker thread while the scheduler may
  // be committing another event's set/cancel on the same map, so the erase
  // goes through the effect log like every other engine mutation.
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kTimerFired;
    e.proc = this;
    e.token = token;
    log->push_back(std::move(e));
  } else {
    live_timers_.erase(token);
  }
  fn();
}

void Process::apply_timer_fired(TimerId token) { live_timers_.erase(token); }

void Process::cancel_timer(TimerId id) {
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kCancelTimer;
    e.proc = this;
    e.token = id;
    log->push_back(std::move(e));
    return;
  }
  apply_cancel_timer(id);
}

void Process::apply_cancel_timer(TimerId token) {
  const auto it = live_timers_.find(token);
  if (it == live_timers_.end()) return;  // already fired or cancelled
  sim_->cancel(it->second);
  live_timers_.erase(it);
}

void Process::trace(std::string category, std::string text) {
  if (auto* log = current_effect_log()) {
    Effect e;
    e.kind = Effect::Kind::kTrace;
    e.from = id_;
    e.text_a = std::move(category);
    e.text_b = std::move(text);
    log->push_back(std::move(e));
    return;
  }
  sim_->trace().record(sim_->now(), id_, std::move(category),
                       std::move(text));
}

}  // namespace lyra::sim
