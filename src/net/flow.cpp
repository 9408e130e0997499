#include "net/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/span.hpp"

namespace lsds::net {

namespace {
// A flow is "done" when its residue is below one millionth of a byte —
// absorbs float error from progressing to the scheduled completion instant.
constexpr double kByteEpsilon = 1e-6;
// Residual weight below this is floating-point dust from the weighted
// subtractions, not a real unfixed flow.
constexpr double kWeightEpsilon = 1e-9;
}  // namespace

FlowNetwork::FlowNetwork(core::Engine& engine, RouteProvider& routing, Config cfg)
    : engine_(engine),
      routing_(routing),
      cfg_(cfg),
      n_links_(routing.link_count()),
      res_rate_(routing.link_count(), 0.0),
      res_bytes_(routing.link_count(), 0.0),
      res_up_(routing.link_count(), 1),
      dsu_parent_(routing.link_count()),
      comp_members_(routing.link_count()),
      solve_cap_(routing.link_count(), 0.0),
      solve_wsum_(routing.link_count(), 0.0),
      res_mark_(routing.link_count(), 0) {
  std::iota(dsu_parent_.begin(), dsu_parent_.end(), ResourceId{0});
  scratch_members_.reserve(64);
  scratch_old_rate_.reserve(64);
  scratch_fixed_.reserve(64);
  scratch_res_.reserve(64);
  dirty_res_.reserve(16);
}

ResourceId FlowNetwork::add_resource(double capacity, std::string name) {
  if (!std::isfinite(capacity) || capacity <= 0) {
    throw std::invalid_argument("FlowNetwork::add_resource: capacity must be finite and > 0");
  }
  const ResourceId id = static_cast<ResourceId>(total_resources());
  extra_caps_.push_back(capacity);
  extra_names_.push_back(std::move(name));
  res_rate_.push_back(0.0);
  res_bytes_.push_back(0.0);
  res_up_.push_back(1);
  dsu_parent_.push_back(id);
  comp_members_.emplace_back();
  solve_cap_.push_back(0.0);
  solve_wsum_.push_back(0.0);
  res_mark_.push_back(0);
  return id;
}

void FlowNetwork::set_resource_capacity(ResourceId id, double capacity) {
  if (id < n_links_ || id >= total_resources()) {
    throw std::invalid_argument(
        "FlowNetwork::set_resource_capacity: not a registered resource (links are owned by "
        "the RouteProvider)");
  }
  if (!std::isfinite(capacity) || capacity <= 0) {
    throw std::invalid_argument(
        "FlowNetwork::set_resource_capacity: capacity must be finite and > 0");
  }
  double& cap = extra_caps_[id - n_links_];
  if (cap == capacity) return;
  cap = capacity;
  // Dirty exactly this resource's component: the incremental re-solve picks
  // up the new capacity there and touches nothing else.
  if (cfg_.incremental) dirty_res_.push_back(id);
  resolve_and_reschedule();
}

void FlowNetwork::check_resource(ResourceId id, const char* what) const {
  if (id >= total_resources()) {
    throw std::out_of_range(std::string("FlowNetwork::") + what + ": resource id " +
                            std::to_string(id) + " >= " + std::to_string(total_resources()));
  }
}

const std::string& FlowNetwork::resource_name(ResourceId id) const {
  check_resource(id, "resource_name");
  static const std::string kLinkName = "link";
  return id < n_links_ ? kLinkName : extra_names_[id - n_links_];
}

bool FlowNetwork::resource_up(ResourceId id) const {
  check_resource(id, "resource_up");
  return res_up_[id];
}

void FlowNetwork::set_resource_up(ResourceId id, bool up) {
  check_resource(id, "set_resource_up");
  if (static_cast<bool>(res_up_[id]) == up) return;
  res_up_[id] = up ? 1 : 0;
  if (cfg_.incremental) dirty_res_.push_back(id);
  // Fail-stop: the outage severs every connection crossing the resource (a
  // dead link drops the circuit; a dead disk kills the I/O). Abort them all
  // (latency-phase flows included — their handshake dies too).
  std::vector<std::pair<FlowId, ErrorFn>> aborted;
  if (!up && semantics_ == core::FailureSemantics::kFailStop) {
    for (FlowRef ref : by_id_) {  // ascending id: ascending-id callbacks
      if (!is_live(ref)) continue;
      Flow& flow = slab_[ref.slot];
      if (std::find(flow.resources.begin(), flow.resources.end(), id) ==
          flow.resources.end()) {
        continue;
      }
      settle(flow, flow.rate);
      publish_span(flow, "aborted");
      detach_sharing(ref.slot);
      aborted.emplace_back(ref.id, std::move(flow.on_error));
      release_slot(ref.slot);
      ++flows_aborted_;
    }
  }
  resolve_and_reschedule();
  // Callbacks last: they may start replacement flows re-entrantly.
  for (auto& [fid, cb] : aborted) {
    if (cb) cb(fid);
  }
}

FlowId FlowNetwork::start_flow(NodeId src, NodeId dst, double bytes, CompletionFn on_complete) {
  return start_flow_weighted(src, dst, bytes, 1.0, std::move(on_complete));
}

FlowId FlowNetwork::start_flow_weighted(NodeId src, NodeId dst, double bytes, double weight,
                                        CompletionFn on_complete, ErrorFn on_error) {
  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = bytes;
  spec.weight = weight;
  spec.on_complete = std::move(on_complete);
  spec.on_error = std::move(on_error);
  return start_flow_spec(std::move(spec));
}

FlowId FlowNetwork::start_io(double bytes, std::vector<ResourceId> resources,
                             double access_latency, CompletionFn on_complete, ErrorFn on_error) {
  FlowSpec spec;
  spec.bytes = bytes;
  spec.resources = std::move(resources);
  spec.extra_latency = access_latency;
  spec.bind_endpoints = false;
  spec.on_complete = std::move(on_complete);
  spec.on_error = std::move(on_error);
  return start_flow_spec(std::move(spec));
}

FlowId FlowNetwork::start_flow_spec(FlowSpec spec) {
  if (!std::isfinite(spec.bytes) || spec.bytes < 0) {
    throw std::invalid_argument("FlowNetwork: bytes must be finite and >= 0");
  }
  if (!std::isfinite(spec.weight) || spec.weight <= 0) {
    throw std::invalid_argument("FlowNetwork: weight must be finite and > 0");
  }
  if (!std::isfinite(spec.extra_latency) || spec.extra_latency < 0) {
    throw std::invalid_argument("FlowNetwork: extra latency must be finite and >= 0");
  }
  for (ResourceId r : spec.resources) check_resource(r, "start_flow_spec");
  double latency = spec.extra_latency;
  scratch_constraints_.clear();
  if (spec.src != spec.dst) {
    const Route& route = routing_.route(spec.src, spec.dst);
    if (!route.valid) {
      throw std::invalid_argument("FlowNetwork: no route between nodes");
    }
    scratch_constraints_.assign(route.links.begin(), route.links.end());
    latency += route.total_latency;
  }
  // Endpoint binding joins the storage constraints: source disk read + route
  // links + destination disk write, one constraint set for the solver.
  if (spec.bind_endpoints && binder_) {
    binder_(spec.src, spec.dst, scratch_constraints_, latency);
  }
  scratch_constraints_.insert(scratch_constraints_.end(), spec.resources.begin(),
                              spec.resources.end());

  const FlowId id = next_id_++;
  const Slot slot = acquire_slot();
  Flow& flow = slab_[slot];
  flow.id = id;
  flow.resources.assign(scratch_constraints_.begin(), scratch_constraints_.end());
  flow.remaining = spec.bytes;
  flow.weight = spec.weight;
  flow.on_complete = std::move(spec.on_complete);
  flow.on_error = std::move(spec.on_error);
  flow.src = spec.src;
  flow.dst = spec.dst;
  flow.bytes = spec.bytes;
  flow.started = engine_.now();
  // Fail-stop + constraint set already down = connection refused: fail
  // asynchronously (callers expect the error after start returns), never
  // admit the flow.
  if (semantics_ == core::FailureSemantics::kFailStop) {
    for (ResourceId r : flow.resources) {
      if (!res_up_[r]) {
        ++flows_aborted_;
        publish_span(flow, "refused");
        engine_.schedule_in(0, [cb = std::move(flow.on_error), id] {
          if (cb) cb(id);
        });
        release_slot(slot);
        return id;
      }
    }
  }
  // Admission: drop departed flows' refs once they are the majority, so
  // ordered scans stay proportional to the live set.
  if (by_id_.size() >= 64 && by_id_.size() > 2 * active_flows()) {
    std::erase_if(by_id_, [this](FlowRef r) { return !is_live(r); });
  }
  const FlowRef ref{id, slot};
  by_id_.push_back(ref);

  if (spec.bytes <= kByteEpsilon || flow.resources.empty()) {
    // Pure-latency delivery (empty payload, or a local copy with no bound
    // storage constraints).
    engine_.schedule_in(latency, [this, ref, bytes = spec.bytes] {
      if (!is_live(ref)) return;  // cancelled
      bytes_delivered_ += bytes;
      finish_flow(ref.slot);
    });
    return id;
  }
  engine_.schedule_in(latency, [this, ref] { activate(ref); });
  return id;
}

FlowNetwork::Slot FlowNetwork::acquire_slot() {
  if (free_slots_.empty()) {
    slab_.emplace_back();
    return static_cast<Slot>(slab_.size() - 1);
  }
  const Slot slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void FlowNetwork::release_slot(Slot slot) {
  Flow& flow = slab_[slot];
  flow.id = kInvalidFlow;
  flow.resources.clear();
  flow.rate = 0;  // a latency-phase flow reads rate 0
  flow.on_complete = nullptr;
  flow.on_error = nullptr;
  free_slots_.push_back(slot);
}

FlowNetwork::Slot FlowNetwork::find_slot(FlowId id) const {
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(), id,
                             [](FlowRef r, FlowId v) { return r.id < v; });
  return it != by_id_.end() && it->id == id && is_live(*it) ? it->slot : kNoSlot;
}

void FlowNetwork::activate(FlowRef ref) {
  if (!is_live(ref)) return;  // cancelled during the latency phase
  Flow& flow = slab_[ref.slot];
  flow.sharing = true;
  flow.anchor_t = engine_.now();
  ++sharing_count_;
  if (cfg_.incremental) {
    const ResourceId anchor = flow.resources.front();
    for (ResourceId r : flow.resources) dsu_unite(anchor, r);
    comp_members_[dsu_find(anchor)].push_back(ref);
    dirty_res_.push_back(anchor);
  }
  resolve_and_reschedule();
}

bool FlowNetwork::cancel(FlowId id) {
  const Slot slot = find_slot(id);
  if (slot == kNoSlot) return false;
  Flow& flow = slab_[slot];
  settle(flow, flow.rate);
  publish_span(flow, "cancelled");
  const bool was_sharing = flow.sharing;
  detach_sharing(slot);
  release_slot(slot);
  // A latency-phase flow never held capacity: nothing to re-solve.
  if (was_sharing) resolve_and_reschedule();
  return true;
}

double FlowNetwork::flow_rate(FlowId id) const {
  const Slot slot = find_slot(id);
  return slot == kNoSlot ? 0.0 : slab_[slot].rate;
}

void FlowNetwork::track_link(ResourceId id) {
  check_resource(id, "track_link");
  tracked_.emplace(id, stats::TimeSeries{});
}

const stats::TimeSeries& FlowNetwork::link_series(ResourceId id) const { return tracked_.at(id); }

void FlowNetwork::settle(Flow& flow, double old_rate) {
  const double now = engine_.now();
  const double dt = now - flow.anchor_t;
  flow.anchor_t = now;
  if (dt <= 0 || !flow.sharing || old_rate <= 0) return;
  const double moved = std::min(old_rate * dt, flow.remaining);
  flow.remaining -= moved;
  bytes_delivered_ += moved;
  for (ResourceId r : flow.resources) res_bytes_[r] += moved;
}

double FlowNetwork::total_bytes_delivered() const {
  // Settled segments plus every live flow's in-flight bytes since its
  // anchor, summed in ascending-FlowId order (deterministic and identical
  // under either solver, because anchors sit at rate-change instants).
  double total = bytes_delivered_;
  const double now = engine_.now();
  for (FlowRef ref : by_id_) {
    if (!is_live(ref)) continue;
    const Flow& flow = slab_[ref.slot];
    if (!flow.sharing || flow.rate <= 0) continue;
    total += std::min(flow.rate * (now - flow.anchor_t), flow.remaining);
  }
  return total;
}

double FlowNetwork::resource_bytes(ResourceId id) const {
  check_resource(id, "resource_bytes");
  double total = res_bytes_[id];
  const double now = engine_.now();
  for (FlowRef ref : by_id_) {
    if (!is_live(ref)) continue;
    const Flow& flow = slab_[ref.slot];
    if (!flow.sharing || flow.rate <= 0) continue;
    if (std::find(flow.resources.begin(), flow.resources.end(), id) == flow.resources.end()) {
      continue;
    }
    total += std::min(flow.rate * (now - flow.anchor_t), flow.remaining);
  }
  return total;
}

void FlowNetwork::detach_sharing(Slot slot) {
  Flow& flow = slab_[slot];
  if (!flow.sharing) return;
  flow.sharing = false;
  --sharing_count_;
  if (flow.heap_pos != kNoPos) {
    drop_key(flow);
    heap_erase(slot);
  }
  if (cfg_.incremental) {
    // The departing flow's resources must be re-solved (and zeroed when it
    // was their last user); its component entry goes stale until the next
    // solve compacts it, and the partition stays over-merged until the next
    // rebuild.
    ++departures_;
    for (ResourceId r : flow.resources) dirty_res_.push_back(r);
  }
}

void FlowNetwork::drop_key(Flow& flow) {
  if (flow.armed.valid()) {
    engine_.cancel(flow.armed);
    flow.armed = {};
  } else {
    engine_.release_key(completion_heap_[flow.heap_pos].key);
  }
}

void FlowNetwork::heap_place(std::uint32_t pos, HeapEntry e) {
  completion_heap_[pos] = e;
  slab_[e.slot].heap_pos = pos;
}

void FlowNetwork::heap_sift_up(std::uint32_t pos) {
  const HeapEntry e = completion_heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!(e.key < completion_heap_[parent].key)) break;
    heap_place(pos, completion_heap_[parent]);
    pos = parent;
  }
  heap_place(pos, e);
}

void FlowNetwork::heap_sift_down(std::uint32_t pos) {
  const HeapEntry e = completion_heap_[pos];
  const auto n = static_cast<std::uint32_t>(completion_heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && completion_heap_[child + 1].key < completion_heap_[child].key) ++child;
    if (!(completion_heap_[child].key < e.key)) break;
    heap_place(pos, completion_heap_[child]);
    pos = child;
  }
  heap_place(pos, e);
}

void FlowNetwork::heap_fix(std::uint32_t pos) {
  if (pos > 0 && completion_heap_[pos].key < completion_heap_[(pos - 1) / 2].key) {
    heap_sift_up(pos);
  } else {
    heap_sift_down(pos);
  }
}

void FlowNetwork::heap_set(Slot slot, core::EventKey key) {
  std::uint32_t pos = slab_[slot].heap_pos;
  if (pos == kNoPos) {
    pos = static_cast<std::uint32_t>(completion_heap_.size());
    completion_heap_.push_back({key, slot});
  } else {
    completion_heap_[pos].key = key;
  }
  heap_fix(pos);
}

void FlowNetwork::heap_erase(Slot slot) {
  const std::uint32_t pos = slab_[slot].heap_pos;
  slab_[slot].heap_pos = kNoPos;
  const HeapEntry last = completion_heap_.back();
  completion_heap_.pop_back();
  if (pos == completion_heap_.size()) return;  // it was the last entry
  heap_place(pos, last);
  heap_fix(pos);
}

void FlowNetwork::arm_min() {
  if (completion_heap_.empty()) return;
  const HeapEntry& top = completion_heap_.front();
  Flow& flow = slab_[top.slot];
  if (flow.armed.valid()) return;
  const FlowRef ref{flow.id, top.slot};
  const core::TagScope scope(engine_, flow.tag);
  flow.armed = engine_.schedule_key(top.key, [this, ref] { on_completion_event(ref); });
}

ResourceId FlowNetwork::dsu_find(ResourceId r) {
  while (dsu_parent_[r] != r) {
    dsu_parent_[r] = dsu_parent_[dsu_parent_[r]];  // path halving
    r = dsu_parent_[r];
  }
  return r;
}

void FlowNetwork::dsu_unite(ResourceId a, ResourceId b) {
  const ResourceId ra = dsu_find(a);
  const ResourceId rb = dsu_find(b);
  if (ra == rb) return;
  // Small-to-large: the shorter member list is appended to the longer, so a
  // flow ref moves lists O(log n) times. Ties go to the smaller root id —
  // fully determined by ids and sizes.
  ResourceId win = ra;
  ResourceId lose = rb;
  const std::size_t sa = comp_members_[ra].size();
  const std::size_t sb = comp_members_[rb].size();
  if (sb > sa || (sb == sa && rb < ra)) {
    win = rb;
    lose = ra;
  }
  dsu_parent_[lose] = win;
  auto& src = comp_members_[lose];
  if (src.empty()) return;
  auto& dst = comp_members_[win];
  if (dst.empty()) {
    dst.swap(src);  // the emptied list keeps dst's old buffer for reuse
  } else {
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
  }
}

void FlowNetwork::maybe_rebuild_components() {
  // Removals leave the union-find over-merged (supersets stay correct but
  // shrink the incrementality win). Rebuild from live flows once the flows
  // that left since the last rebuild outnumber the live ones, so the
  // rebuild's cost is amortised over those departures.
  if (departures_ < 64 || departures_ < sharing_count_) return;
  std::iota(dsu_parent_.begin(), dsu_parent_.end(), ResourceId{0});
  for (auto& list : comp_members_) list.clear();
  departures_ = 0;
  ++component_rebuilds_;
  for (FlowRef ref : by_id_) {
    if (!is_live(ref)) continue;
    const Flow& flow = slab_[ref.slot];
    if (!flow.sharing) continue;
    const ResourceId anchor = flow.resources.front();
    for (ResourceId r : flow.resources) dsu_unite(anchor, r);
    comp_members_[dsu_find(anchor)].push_back(ref);
  }
}

void FlowNetwork::collect_dirty() {
  scratch_members_.clear();
  scratch_res_.clear();
  if (!cfg_.incremental) {
    // Full reference solver: every sharing flow, every resource, every time.
    std::fill(res_rate_.begin(), res_rate_.end(), 0.0);
    ++mark_epoch_;
    for (FlowRef ref : by_id_) {
      if (!is_live(ref)) continue;
      const Flow& flow = slab_[ref.slot];
      if (!flow.sharing) continue;
      scratch_members_.push_back(ref);
      for (ResourceId r : flow.resources) {
        if (res_mark_[r] != mark_epoch_) {
          res_mark_[r] = mark_epoch_;
          scratch_res_.push_back(r);
        }
      }
    }
    std::sort(scratch_res_.begin(), scratch_res_.end());
    return;
  }
  if (dirty_res_.empty()) return;
  maybe_rebuild_components();
  // Dirty component roots -> live member flows (compacting stale refs as we
  // pass). Member lists are unordered; sort afterwards so the solve walks
  // flows in ascending id order, exactly like the full solver restricted
  // to these components.
  ++mark_epoch_;
  for (ResourceId r : dirty_res_) {
    const ResourceId root = dsu_find(r);
    if (res_mark_[root] == mark_epoch_) continue;
    res_mark_[root] = mark_epoch_;
    auto& list = comp_members_[root];
    std::size_t kept = 0;
    for (FlowRef ref : list) {
      const Flow& flow = slab_[ref.slot];
      if (flow.id != ref.id || !flow.sharing) continue;  // stale entry
      list[kept++] = ref;
      scratch_members_.push_back(ref);
    }
    list.resize(kept);
  }
  std::sort(scratch_members_.begin(), scratch_members_.end(),
            [](FlowRef a, FlowRef b) { return a.id < b.id; });
  // Resources to re-solve: every member's constraint set plus the explicitly
  // dirtied ones (a departed flow's resources must be zeroed even when no
  // member remains on them).
  ++mark_epoch_;
  for (FlowRef ref : scratch_members_) {
    for (ResourceId r : slab_[ref.slot].resources) {
      if (res_mark_[r] != mark_epoch_) {
        res_mark_[r] = mark_epoch_;
        scratch_res_.push_back(r);
      }
    }
  }
  for (ResourceId r : dirty_res_) {
    if (res_mark_[r] != mark_epoch_) {
      res_mark_[r] = mark_epoch_;
      scratch_res_.push_back(r);
    }
  }
  std::sort(scratch_res_.begin(), scratch_res_.end());
}

void FlowNetwork::solve_members() {
  ++solves_;
  flows_rerated_ += scratch_members_.size();
  for (ResourceId r : scratch_res_) {
    solve_cap_[r] = res_up_[r] ? resource_capacity(r) : 0.0;
    solve_wsum_[r] = 0.0;
    res_rate_[r] = 0.0;
  }
  // Weighted max-min: the bottleneck metric is capacity per unit of unfixed
  // *weight*, and a flow fixed at a bottleneck receives weight * that unit
  // rate.
  scratch_old_rate_.clear();
  for (FlowRef ref : scratch_members_) {
    Flow& f = slab_[ref.slot];
    scratch_old_rate_.push_back(f.rate);
    f.rate = 0;
    for (ResourceId r : f.resources) solve_wsum_[r] += f.weight;
  }
  scratch_fixed_.assign(scratch_members_.size(), 0);
  std::size_t n_left = scratch_members_.size();
  while (n_left > 0) {
    // Most constrained resource: min per-weight share among resources with
    // unfixed flows. Ascending-ResourceId scan with a strict '<' makes the
    // tie-break (equal fair shares) the smallest resource id, by
    // construction.
    double best = std::numeric_limits<double>::infinity();
    ResourceId best_res = kInvalidResource;
    for (ResourceId r : scratch_res_) {
      if (solve_wsum_[r] <= kWeightEpsilon) continue;
      const double fair = solve_cap_[r] / solve_wsum_[r];
      if (fair < best) {
        best = fair;
        best_res = r;
      }
    }
    if (best_res == kInvalidResource) break;  // defensive: shouldn't happen
    // Fix every unfixed flow crossing the bottleneck at weight * unit rate.
    bool progressed = false;
    for (std::size_t i = 0; i < scratch_members_.size(); ++i) {
      if (scratch_fixed_[i]) continue;
      Flow& f = slab_[scratch_members_[i].slot];
      const bool on_bottleneck =
          std::find(f.resources.begin(), f.resources.end(), best_res) != f.resources.end();
      if (!on_bottleneck) continue;
      f.rate = best * f.weight;
      scratch_fixed_[i] = 1;
      progressed = true;
      --n_left;
      for (ResourceId r : f.resources) {
        solve_cap_[r] = std::max(0.0, solve_cap_[r] - f.rate);
        solve_wsum_[r] = std::max(0.0, solve_wsum_[r] - f.weight);
      }
    }
    if (!progressed) {
      // All remaining weight on the chosen resource was epsilon dust; zero
      // it out so the resource stops being selected. (Never happens with
      // integer weights, but fractional weights can leave residue.)
      solve_wsum_[best_res] = 0;
    }
  }

  for (FlowRef ref : scratch_members_) {
    const Flow& f = slab_[ref.slot];
    for (ResourceId r : f.resources) res_rate_[r] += f.rate;
  }
}

void FlowNetwork::resolve_and_reschedule() {
  collect_dirty();
  solve_members();
  dirty_res_.clear();

  for (auto& [r, series] : tracked_) {
    series.record(engine_.now(), res_rate_[r] / resource_capacity(r));
  }

  // Re-key only the flows whose fair share moved: with a piecewise-linear
  // remaining, an unchanged rate means an unchanged absolute completion
  // instant, so the key stays valid. Members are in ascending flow id order
  // -> deterministic sequence numbers for the reserved keys.
  for (std::size_t i = 0; i < scratch_members_.size(); ++i) {
    const FlowRef ref = scratch_members_[i];
    Flow& f = slab_[ref.slot];
    if (f.rate == scratch_old_rate_[i]) continue;
    settle(f, scratch_old_rate_[i]);
    if (f.heap_pos != kNoPos) drop_key(f);  // superseded
    if (f.rate > 0) {
      f.tag = engine_.current_tag();
      heap_set(ref.slot, engine_.reserve_key(engine_.now() + f.remaining / f.rate));
    } else if (f.heap_pos != kNoPos) {
      heap_erase(ref.slot);
    }
  }
  arm_min();
}

void FlowNetwork::on_completion_event(FlowRef ref) {
  if (!is_live(ref)) return;  // defensive: cancelled events never fire
  // This firing consumes the armed event and the key under it.
  slab_[ref.slot].armed = {};
  heap_erase(ref.slot);
  // The event was armed at this flow's completion key under its current
  // rate (a rate change would have superseded and cancelled it), so the
  // flow is done — settling leaves at most float dust in `remaining`, and
  // when the residual transfer time is below the clock's ulp the residue
  // could never drain at all. Finish directly either way.
  finish_flow(ref.slot);
  resolve_and_reschedule();
}

void FlowNetwork::finish_flow(Slot slot) {
  Flow& flow = slab_[slot];
  const FlowId id = flow.id;
  settle(flow, flow.rate);
  publish_span(flow, "done");
  CompletionFn cb = std::move(flow.on_complete);
  detach_sharing(slot);
  release_slot(slot);
  ++flows_completed_;
  if (cb) cb(id);
}

void FlowNetwork::publish_span(const Flow& flow, const char* status) const {
  const auto& bus = obs::SpanBus::global();
  if (!bus.enabled()) return;
  obs::Span s;
  s.kind = "flow";
  s.status = status;
  s.id = flow.id;
  s.t0 = flow.started;
  s.t1 = engine_.now();
  s.quantity = flow.bytes;
  s.src = flow.src;
  s.dst = flow.dst;
  bus.publish(s);
}

}  // namespace lsds::net
