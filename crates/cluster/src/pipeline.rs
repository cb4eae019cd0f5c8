//! Event-driven offload pipeline.
//!
//! [`crate::node::NodeRuntime::offload_syscall`] composes one offload's
//! latency arithmetically, which is exact for a single in-flight request.
//! But the proxy process is *single-threaded* ("it provides execution
//! context on behalf of the application", one context): when several LWK
//! threads offload concurrently, their requests queue at the proxy and
//! service is serialized. This module models that with the discrete-event
//! engine: each request is a chain of events (marshal → IPI → delegator
//! dispatch → proxy wake → service → reply IPI), and the proxy is a
//! shared resource.

use hlwk_core::costs::CostModel;
use simcore::fault::{FaultPlan, MsgFault};
use simcore::{Cycles, Engine, EventQueue, World};

/// Why a burst failed to produce a complete set of latencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineError {
    /// An empty burst has no latencies to report.
    EmptyBurst,
    /// Request `index` never completed (its events were lost — e.g. an
    /// injected drop with no retry at this layer).
    Incomplete {
        /// Index of the request that never saw its reply.
        index: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyBurst => write!(f, "empty offload burst"),
            PipelineError::Incomplete { index } => {
                write!(f, "request {index} never completed")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One request's parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OffloadRequest {
    /// When the LWK thread issues the call.
    pub issued_at: Cycles,
    /// Linux-side service time of the call itself.
    pub service: Cycles,
    /// Scheduling delay before the proxy first runs for this request.
    pub wake_delay: Cycles,
}

/// Pipeline events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ev {
    /// Request `i` delivered to the delegator (after marshal + IPI).
    Delivered(usize),
    /// Proxy finished servicing request `i`.
    Serviced(usize),
    /// Reply for request `i` arrived back at the LWK.
    Completed(usize),
}

struct PipelineWorld {
    costs: CostModel,
    reqs: Vec<OffloadRequest>,
    /// When the proxy becomes free.
    proxy_free_at: Cycles,
    /// Completion instant of each request, indexed by request; `None`
    /// until its reply arrives (and forever, if the request was lost).
    completions: Vec<Option<Cycles>>,
}

impl World for PipelineWorld {
    type Event = Ev;

    fn handle(&mut self, now: Cycles, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Delivered(i) => {
                let req = self.reqs[i];
                // The proxy serves requests in delivery order; if it is
                // busy, this one waits. A parked proxy pays the wake-up
                // scheduling delay.
                let dispatch = now + self.costs.delegator_dispatch;
                let start = if self.proxy_free_at <= dispatch {
                    dispatch + req.wake_delay + self.costs.proxy_dispatch
                } else {
                    // Already running: it fetches the next request from
                    // the delegator inbox without sleeping.
                    self.proxy_free_at + self.costs.proxy_dispatch
                };
                let done = start + req.service;
                self.proxy_free_at = done;
                q.schedule(done, Ev::Serviced(i));
            }
            Ev::Serviced(i) => {
                q.schedule(
                    now + self.costs.ikc_send + self.costs.ikc_ipi,
                    Ev::Completed(i),
                );
            }
            Ev::Completed(i) => {
                self.completions[i] = Some(now);
            }
        }
    }
}

/// Run a burst of concurrent offloads through the event-driven pipeline;
/// returns each request's completion instant. Errors instead of panicking
/// when a request never completes or the burst is empty.
pub fn run_burst(
    costs: CostModel,
    reqs: &[OffloadRequest],
) -> Result<Vec<Cycles>, PipelineError> {
    let completions = run_burst_faulted(costs, reqs, &mut FaultPlan::disabled())?;
    completions
        .into_iter()
        .enumerate()
        .map(|(index, c)| c.ok_or(PipelineError::Incomplete { index }))
        .collect()
}

/// Like [`run_burst`], but each request's delivery leg is subjected to
/// the fault plan: a dropped (or corrupted — the delegator discards a
/// bad checksum) request never completes and comes back as `None`; a
/// delayed one completes late. There is no retransmission at this layer —
/// the retry loop lives in `NodeRuntime::offload_syscall` — so the caller
/// sees exactly which requests were lost.
pub fn run_burst_faulted(
    costs: CostModel,
    reqs: &[OffloadRequest],
    faults: &mut FaultPlan,
) -> Result<Vec<Option<Cycles>>, PipelineError> {
    if reqs.is_empty() {
        return Err(PipelineError::EmptyBurst);
    }
    let mut engine = Engine::new(PipelineWorld {
        costs,
        reqs: reqs.to_vec(),
        proxy_free_at: Cycles::ZERO,
        completions: vec![None; reqs.len()],
    });
    for (i, r) in reqs.iter().enumerate() {
        let delivery = r.issued_at + costs.lwk_syscall + costs.ikc_send + costs.ikc_ipi;
        match faults.draw_msg_fault("burst-req", i as u64, delivery) {
            MsgFault::Drop | MsgFault::Corrupt => {}
            MsgFault::Delay(d) => {
                engine.queue_mut().schedule(delivery + d, Ev::Delivered(i));
            }
            MsgFault::None => {
                engine.queue_mut().schedule(delivery, Ev::Delivered(i));
            }
        }
    }
    engine.run_to_completion();
    Ok(engine.into_world().completions)
}

/// The closed-form single-request composition (what
/// `NodeRuntime::offload_syscall` charges) — kept next to the event model
/// so tests can assert they agree.
pub fn single_request_latency(costs: &CostModel, req: &OffloadRequest) -> Cycles {
    costs.lwk_syscall
        + costs.ikc_send
        + costs.ikc_ipi
        + costs.delegator_dispatch
        + req.wake_delay
        + costs.proxy_dispatch
        + req.service
        + costs.ikc_send
        + costs.ikc_ipi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_us: u64, service_us: u64) -> OffloadRequest {
        OffloadRequest {
            issued_at: Cycles::from_us(at_us),
            service: Cycles::from_us(service_us),
            wake_delay: Cycles::from_ns(500),
        }
    }

    #[test]
    fn event_model_matches_closed_form_for_one_request() -> Result<(), PipelineError> {
        let costs = CostModel::default();
        let r = req(10, 3);
        let done = run_burst(costs, &[r])?[0];
        assert_eq!(done, r.issued_at + single_request_latency(&costs, &r));
        Ok(())
    }

    #[test]
    fn concurrent_requests_serialize_at_the_proxy() -> Result<(), PipelineError> {
        let costs = CostModel::default();
        // Four threads offload at the same instant, 5 us service each.
        let burst: Vec<OffloadRequest> = (0..4).map(|_| req(10, 5)).collect();
        let done = run_burst(costs, &burst)?;
        // First request pays the normal latency...
        let mut sorted = done.clone();
        sorted.sort();
        let first = sorted[0];
        assert_eq!(
            first,
            burst[0].issued_at + single_request_latency(&costs, &burst[0])
        );
        // ...each subsequent one queues behind ~one more service time.
        for w in sorted.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap >= Cycles::from_us(5),
                "requests must not overlap at the proxy: gap {gap}"
            );
            assert!(gap < Cycles::from_us(7), "but only queueing separates them: {gap}");
        }
        // Total burst completion ~ 4 service times, not 1.
        let last = sorted[sorted.len() - 1];
        assert!(last - first >= Cycles::from_us(15));
        Ok(())
    }

    #[test]
    fn spaced_requests_do_not_queue() -> Result<(), PipelineError> {
        let costs = CostModel::default();
        // 100 us apart with 5 us service: no queueing.
        let burst: Vec<OffloadRequest> =
            (0..4).map(|i| req(10 + i * 100, 5)).collect();
        let done = run_burst(costs, &burst)?;
        for (r, d) in burst.iter().zip(&done) {
            assert_eq!(*d, r.issued_at + single_request_latency(&costs, r));
        }
        Ok(())
    }

    #[test]
    fn busy_proxy_skips_the_wake_delay() -> Result<(), PipelineError> {
        let costs = CostModel::default();
        // Second request arrives while the proxy still works on the first:
        // it must NOT pay another wake delay (the proxy just fetches it).
        let slow_wake = OffloadRequest {
            issued_at: Cycles::from_us(10),
            service: Cycles::from_us(50),
            wake_delay: Cycles::from_us(20),
        };
        let follow = OffloadRequest {
            issued_at: Cycles::from_us(15),
            service: Cycles::from_us(1),
            wake_delay: Cycles::from_us(20), // would apply only if parked
        };
        let done = run_burst(costs, &[slow_wake, follow])?;
        let first_done = done[0];
        // The follow-up completes right after the first, without +20us.
        let delta = done[1] - first_done;
        assert!(
            delta < Cycles::from_us(5),
            "busy-proxy fetch should skip the wake delay: {delta}"
        );
        Ok(())
    }

    #[test]
    fn empty_burst_is_an_error_not_a_panic() {
        assert_eq!(
            run_burst(CostModel::default(), &[]),
            Err(PipelineError::EmptyBurst)
        );
    }

    #[test]
    fn dropped_request_surfaces_as_incomplete() {
        use simcore::fault::FaultConfig;
        use simcore::StreamRng;
        let costs = CostModel::default();
        let burst: Vec<OffloadRequest> = (0..8).map(|i| req(10 + i * 50, 5)).collect();
        let mut plan = FaultPlan::new(
            FaultConfig::message_loss(0.5),
            StreamRng::root(42).stream("pipeline-fault", 0),
        );
        let done = run_burst_faulted(costs, &burst, &mut plan).expect("nonempty burst");
        let lost = done.iter().filter(|c| c.is_none()).count();
        assert_eq!(
            lost as u64,
            plan.counts().0,
            "every drawn drop is a missing completion"
        );
        assert!(lost > 0, "p=0.5 over 8 requests: at least one drop expected");
        // The survivors still obey the closed form (no queueing at 50us spacing).
        for (r, d) in burst.iter().zip(&done) {
            if let Some(d) = d {
                assert_eq!(*d, r.issued_at + single_request_latency(&costs, r));
            }
        }
    }
}
