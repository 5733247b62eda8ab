#include "testing/schedule.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/random.h"

namespace dicho::testing {

const char* FaultKindName(FaultAction::Kind kind) {
  switch (kind) {
    case FaultAction::Kind::kCrash: return "crash";
    case FaultAction::Kind::kRestart: return "restart";
    case FaultAction::Kind::kPartition: return "partition";
    case FaultAction::Kind::kHeal: return "heal";
    case FaultAction::Kind::kDropStart: return "drop-start";
    case FaultAction::Kind::kDropStop: return "drop-stop";
    case FaultAction::Kind::kJitterSpike: return "jitter-spike";
    case FaultAction::Kind::kJitterRestore: return "jitter-restore";
    case FaultAction::Kind::kJoin: return "join";
    case FaultAction::Kind::kLeave: return "leave";
    case FaultAction::Kind::kDrain: return "drain";
  }
  return "?";
}

std::string FaultAction::ToString() const {
  char buf[128];
  snprintf(buf, sizeof(buf), "%8.0fus %-14s", at, FaultKindName(kind));
  std::string out = buf;
  switch (kind) {
    case Kind::kCrash:
    case Kind::kRestart:
    case Kind::kJoin:
    case Kind::kLeave:
    case Kind::kDrain:
      out += " node=" + std::to_string(node);
      break;
    case Kind::kPartition: {
      for (const auto& group : groups) {
        out += " [";
        for (size_t i = 0; i < group.size(); i++) {
          if (i > 0) out += ",";
          out += std::to_string(group[i]);
        }
        out += "]";
      }
      break;
    }
    case Kind::kDropStart: {
      snprintf(buf, sizeof(buf), " p=%.2f", drop_rate);
      out += buf;
      break;
    }
    case Kind::kJitterSpike: {
      snprintf(buf, sizeof(buf), " jitter=%.0fus", jitter_us);
      out += buf;
      break;
    }
    default:
      break;
  }
  return out;
}

std::string FaultSchedule::ToString() const {
  std::string out;
  for (const auto& action : actions) {
    out += action.ToString();
    out += "\n";
  }
  return out;
}

FaultSchedule GenerateSchedule(uint64_t seed, const ScheduleConfig& config) {
  // Own Rng stream, decoupled from the simulator's: the schedule depends on
  // the seed alone, not on how many random draws the system under test makes.
  Rng rng(seed ^ 0xFA01753C0DE5EEDull);
  FaultSchedule schedule;

  const sim::Time fault_end = config.horizon * (1.0 - config.quiet_tail);
  std::set<sim::NodeId> down;
  bool partitioned = false;
  bool dropping = false;
  bool jittering = false;

  sim::Time t = rng.Exponential(config.mean_step_gap);
  while (t < fault_end) {
    // Collect the action kinds legal right now, then pick one uniformly.
    std::vector<FaultAction::Kind> menu;
    if (config.allow_crash && down.size() < config.max_concurrent_down &&
        down.size() < config.num_nodes) {
      menu.push_back(FaultAction::Kind::kCrash);
    }
    if (config.allow_crash && !down.empty()) {
      menu.push_back(FaultAction::Kind::kRestart);
    }
    if (config.allow_partition) {
      menu.push_back(partitioned ? FaultAction::Kind::kHeal
                                 : FaultAction::Kind::kPartition);
    }
    if (config.allow_drop) {
      menu.push_back(dropping ? FaultAction::Kind::kDropStop
                              : FaultAction::Kind::kDropStart);
    }
    if (config.allow_jitter) {
      menu.push_back(jittering ? FaultAction::Kind::kJitterRestore
                               : FaultAction::Kind::kJitterSpike);
    }
    if (menu.empty()) break;

    FaultAction action;
    action.at = t;
    action.kind = menu[rng.Uniform(menu.size())];
    switch (action.kind) {
      case FaultAction::Kind::kCrash: {
        // Pick a live node.
        std::vector<sim::NodeId> live;
        for (sim::NodeId n = 0; n < config.num_nodes; n++) {
          if (down.count(n) == 0) live.push_back(n);
        }
        action.node = live[rng.Uniform(live.size())];
        down.insert(action.node);
        break;
      }
      case FaultAction::Kind::kRestart: {
        std::vector<sim::NodeId> crashed(down.begin(), down.end());
        action.node = crashed[rng.Uniform(crashed.size())];
        down.erase(action.node);
        break;
      }
      case FaultAction::Kind::kPartition: {
        // Random two-way split with both sides non-empty.
        std::vector<sim::NodeId> side_a, side_b;
        for (sim::NodeId n = 0; n < config.num_nodes; n++) {
          (rng.Bernoulli(0.5) ? side_a : side_b).push_back(n);
        }
        if (side_a.empty()) {
          side_a.push_back(side_b.back());
          side_b.pop_back();
        }
        if (side_b.empty()) {
          side_b.push_back(side_a.back());
          side_a.pop_back();
        }
        action.groups = {side_a, side_b};
        partitioned = true;
        break;
      }
      case FaultAction::Kind::kHeal:
        partitioned = false;
        break;
      case FaultAction::Kind::kDropStart:
        action.drop_rate = 0.05 + rng.NextDouble() * (config.max_drop_rate - 0.05);
        dropping = true;
        break;
      case FaultAction::Kind::kDropStop:
        dropping = false;
        break;
      case FaultAction::Kind::kJitterSpike:
        action.jitter_us = config.max_jitter_us * (0.2 + 0.8 * rng.NextDouble());
        jittering = true;
        break;
      case FaultAction::Kind::kJitterRestore:
        jittering = false;
        break;
      case FaultAction::Kind::kJoin:
      case FaultAction::Kind::kLeave:
      case FaultAction::Kind::kDrain:
        // GenerateSchedule never puts lifecycle actions on its menu; the
        // elasticity scenarios add them to their schedules themselves.
        break;
    }
    schedule.actions.push_back(std::move(action));
    t += rng.Exponential(config.mean_step_gap);
  }

  // Quiet tail: lift every outstanding fault so final checks see a system
  // that had time to converge.
  sim::Time lift = std::max(t, fault_end);
  for (sim::NodeId n : down) {
    FaultAction action;
    action.at = lift;
    action.kind = FaultAction::Kind::kRestart;
    action.node = n;
    schedule.actions.push_back(std::move(action));
  }
  if (partitioned) {
    FaultAction action;
    action.at = lift;
    action.kind = FaultAction::Kind::kHeal;
    schedule.actions.push_back(std::move(action));
  }
  if (dropping) {
    FaultAction action;
    action.at = lift;
    action.kind = FaultAction::Kind::kDropStop;
    schedule.actions.push_back(std::move(action));
  }
  if (jittering) {
    FaultAction action;
    action.at = lift;
    action.kind = FaultAction::Kind::kJitterRestore;
    schedule.actions.push_back(std::move(action));
  }

  // Elasticity post-pass on a derived stream: the base schedule above is
  // bit-identical whether or not joins/leaves are enabled, so old seeds
  // keep their repro guarantee.
  if (config.max_joins > 0 || config.max_leaves > 0) {
    Rng erng(seed ^ 0xE1A571C17FE5EEDull);
    for (uint32_t j = 0; j < config.max_joins; j++) {
      FaultAction action;
      // Early-to-mid run: the joiner must finish catch-up inside the
      // horizon (the quiet tail gives the last join time to converge).
      action.at = fault_end * (0.15 + 0.55 * erng.NextDouble());
      action.kind = FaultAction::Kind::kJoin;
      action.node = config.num_nodes + j;
      schedule.actions.push_back(std::move(action));
    }
    std::set<sim::NodeId> left;
    for (uint32_t l = 0; l < config.max_leaves; l++) {
      if (config.num_nodes - left.size() <= config.min_members) break;
      sim::NodeId victim = static_cast<sim::NodeId>(
          erng.Uniform(config.num_nodes));
      if (left.count(victim) > 0) continue;  // skip, keep draws seed-stable
      left.insert(victim);
      FaultAction action;
      action.at = fault_end * (0.2 + 0.55 * erng.NextDouble());
      action.kind = erng.Bernoulli(0.5) ? FaultAction::Kind::kDrain
                                        : FaultAction::Kind::kLeave;
      action.node = victim;
      schedule.actions.push_back(std::move(action));
    }
    std::stable_sort(schedule.actions.begin(), schedule.actions.end(),
                     [](const FaultAction& a, const FaultAction& b) {
                       return a.at < b.at;
                     });
  }
  return schedule;
}

}  // namespace dicho::testing
