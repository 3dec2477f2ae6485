#include "ranycast/guard/sweep.hpp"

#include "ranycast/guard/chain.hpp"
#include "ranycast/obs/journal.hpp"

namespace ranycast::guard {

namespace {

const char* reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::DeadlineExpired: return "deadline_expired";
    case StopReason::Stalled: return "stalled";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::None: break;
  }
  return "none";
}

}  // namespace

core::Expected<SweepResult, GuardError> run_sweep(std::size_t total,
                                                  std::uint64_t fingerprint,
                                                  Supervisor& supervisor,
                                                  const CheckpointPolicy& policy,
                                                  const SweepHooks& hooks) {
  using F = obs::JournalField;
  SweepResult result;
  result.total = total;

  CheckpointChain chain(policy.path, policy.keep);

  std::size_t start = 0;
  if (policy.resume && !policy.path.empty() && chain_exists(policy.path)) {
    auto recovered = retry_transient(supervisor, policy.retry, [&] {
      return chain.read(policy.kind, fingerprint);
    });
    if (!recovered) return core::unexpected(std::move(recovered).error());
    ByteReader reader(recovered->payload);
    const std::uint64_t cursor = reader.u64();
    if (!reader.ok() || cursor > total || !hooks.load || !hooks.load(reader)) {
      GuardError err;
      err.kind = GuardErrorKind::Corrupt;
      err.path = policy.path;
      err.message = "sweep payload failed to decode";
      return core::unexpected(std::move(err));
    }
    start = static_cast<std::size_t>(cursor);
    result.resumed = true;
    result.resumed_from = start;
    // The explicit resume marker: everything after this line in the journal
    // was produced by the resumed process; everything before it (including a
    // possibly duplicated step from a mid-step kill) by earlier attempts.
    // `generation`/`fallbacks`/`quarantined` record how the chain recovered:
    // a clean resume reads the newest generation with zero fallbacks.
    obs::journal_event("resumed",
                       {F::u64_field("cursor", cursor), F::u64_field("total", total),
                        F::str("checkpoint", policy.path),
                        F::u64_field("generation", recovered->generation),
                        F::u64_field("fallbacks", recovered->fallbacks),
                        F::u64_field("quarantined", recovered->quarantined)},
                       /*durable=*/true);
  }

  const std::size_t every = policy.every == 0 ? 1 : policy.every;
  result.completed = start;
  std::size_t checkpointed = start;  ///< cursor covered by the newest generation
  const auto write_checkpoint_at = [&](std::size_t cursor)
      -> core::Expected<std::monostate, GuardError> {
    ByteWriter payload;
    payload.u64(cursor);
    if (hooks.save) hooks.save(payload);
    auto written = retry_transient(supervisor, policy.retry, [&] {
      return chain.write(policy.kind, fingerprint, payload.data());
    });
    if (!written) return core::unexpected(std::move(written).error());
    checkpointed = cursor;
    obs::journal_event("checkpoint",
                       {F::u64_field("cursor", cursor), F::str("path", policy.path),
                        F::u64_field("generation", *written)},
                       /*durable=*/true);
    return std::monostate{};
  };
  for (std::size_t i = start; i < total; ++i) {
    if (supervisor.should_stop()) break;
    try {
      hooks.process(i);
    } catch (const exec::CancelledError&) {
      // A fan-out inside the item acknowledged the cancellation; the item
      // did not complete, so the cursor stays at i.
      break;
    }
    result.completed = i + 1;
    supervisor.heartbeat();
    // Step granularity durability: everything the item appended to the
    // journal (chaos_step, transient_window, ...) survives a SIGKILL from
    // here on, so a dead run's journal is readable up to the last completed
    // step.
    if (obs::Journal* j = obs::journal()) j->sync();
    if (!policy.path.empty() && ((i + 1) % every == 0 || i + 1 == total)) {
      auto written = write_checkpoint_at(i + 1);
      if (!written) return core::unexpected(std::move(written).error());
    }
    // After the checkpoint is durable: a crash inside this hook (tests use
    // it to simulate SIGKILL at exact steps) loses nothing.
    if (policy.after_step) policy.after_step(result.completed, total);
  }
  if (result.completed < total) {
    result.stopped = supervisor.stop_reason();
    // A cooperative stop (SIGTERM -> Supervisor::cancel, deadline, stall)
    // flushes the steps completed since the last cadence boundary before
    // reporting: the whole point of stopping gracefully is that a later
    // --resume continues from here, not from the previous multiple of
    // `every`. Best effort — if the final write fails, the cadence
    // checkpoint still stands.
    if (!policy.path.empty() && result.completed > checkpointed) {
      (void)write_checkpoint_at(result.completed);
    }
    obs::journal_event("stopped",
                       {F::str("reason", reason_name(result.stopped)),
                        F::u64_field("completed", result.completed),
                        F::u64_field("total", total)},
                       /*durable=*/true);
  }
  return result;
}

}  // namespace ranycast::guard
