//! Negative fixture: the probe charges alpha/beta from the simulator's
//! virtual clock (send/arrive timestamps supplied by the plane), so two
//! same-seed probes produce bit-identical estimates.

pub fn probe_link(sent_at: f64, arrived_at: f64, bytes: usize) -> (f64, f64) {
    let span = arrived_at - sent_at;
    (span, span / bytes.max(1) as f64)
}
