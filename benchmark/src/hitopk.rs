//! HiTopKComm recomposed from the collectives and compress layers' public
//! functions, one span per stage, so a traced run can say which stage a
//! round's time went to. The sequence mirrors
//! `hitopk_all_reduce_ef_scratch` call for call; the traced run and a unit
//! test fail unless the two are bitwise equal on the same input.

use cloudtrain::collectives::hierarchical::{group_wire_bytes, shard_k, HiTopKReport};
use cloudtrain::collectives::ring::{
    all_gather_f32_scratch, all_gather_u32_scratch, ring_all_gather_scratch,
    ring_reduce_scatter_scratch,
};
use cloudtrain::collectives::torus::{grid_pos, inter_node_members, intra_node_members};
use cloudtrain::collectives::{CommScratch, Peer};
use cloudtrain::compress::mstopk::MsTopKStats;
use cloudtrain::compress::{ErrorFeedback, MsTopK};
use cloudtrain::tensor::ops;

use crate::trace::Tracer;

/// Span names of the stages, in pipeline order. The three collective stages
/// in which a rank waits for peers are metered against the scheduler.
pub const INTRA_RS: &str = "collectives.intra_rs";
pub const EF_COMPENSATE: &str = "compress.ef_compensate";
pub const MSTOPK_SELECT: &str = "compress.mstopk_select";
pub const EF_ABSORB: &str = "compress.ef_absorb";
pub const INTER_AG: &str = "collectives.inter_ag_pairs";
pub const SCATTER_ADD: &str = "collectives.scatter_add";
pub const INTRA_AG: &str = "collectives.intra_ag";

/// One HiTopKComm aggregation with error feedback over an `m × n` grid,
/// stage by stage. Returns the library's report and the selection's search
/// statistics.
#[allow(clippy::too_many_arguments)]
pub fn hitopk_ef_recomposed(
    peer: &Peer,
    x: &mut [f32],
    m: usize,
    n: usize,
    rho: f64,
    mstopk: &mut MsTopK,
    ef: &mut ErrorFeedback,
    scratch: &mut CommScratch,
    tracer: &mut Tracer,
    step: usize,
) -> (HiTopKReport, MsTopKStats) {
    let d = x.len();
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    let span = tracer.open_metered(INTRA_RS, step);
    let shard = ring_reduce_scatter_scratch(peer, x, &intra, scratch);
    tracer.close(span);

    let k = shard_k(d, n, rho).min(shard.len());
    let shard_buf = shard.slice_mut(x);
    tracer.time(EF_COMPENSATE, step, || ef.compensate(shard_buf));
    let (selection, stats) = tracer.time(MSTOPK_SELECT, step, || {
        mstopk.select_with_stats(shard_buf, k)
    });
    tracer.time(EF_ABSORB, step, || ef.absorb(shard_buf, &selection));

    let span = tracer.open_metered(INTER_AG, step);
    let value_blocks = all_gather_f32_scratch(peer, &selection.values, &inter, scratch);
    let index_blocks = all_gather_u32_scratch(peer, &selection.indices, &inter, scratch);
    tracer.close(span);
    let inter_bytes_sent = group_wire_bytes(&selection, inter.len());

    let span = tracer.open(SCATTER_ADD, step);
    ops::fill(shard_buf, 0.0);
    for (vals, idxs) in value_blocks.into_iter().zip(index_blocks) {
        ops::scatter_add(shard_buf, &idxs, &vals);
        scratch.put_f32(vals);
        scratch.put_u32(idxs);
    }
    let shard_nonzeros = shard_buf.iter().filter(|v| **v != 0.0).count();
    tracer.close(span);

    let span = tracer.open_metered(INTRA_AG, step);
    ring_all_gather_scratch(peer, x, &intra, scratch);
    tracer.close(span);

    let report = HiTopKReport {
        k_per_shard: k,
        shard_nonzeros,
        inter_bytes_sent,
    };
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::heavy_tailed;
    use cloudtrain::collectives::group::run_on_group;
    use cloudtrain::collectives::hierarchical::hitopk_all_reduce_ef_scratch;
    use cloudtrain::tensor::partition::shard_for;
    use std::time::Instant;

    #[test]
    fn recomposition_equals_the_library_call_bitwise() {
        let (m, n, d, rho) = (2, 2, 4096, 0.05);
        let origin = Instant::now();
        let results = run_on_group(m * n, |peer| {
            let rank = peer.rank();
            let shard_len = shard_for(d, n, rank % n).len();
            let mut lib = (
                MsTopK::new(30, 9),
                ErrorFeedback::new(shard_len),
                CommScratch::new(),
            );
            let mut ours = (
                MsTopK::new(30, 9),
                ErrorFeedback::new(shard_len),
                CommScratch::new(),
            );
            let mut tracer = Tracer::new(origin, rank);
            // Three rounds, so the residual and the RNG carry over.
            for round in 0..3 {
                let input = heavy_tailed(d, 100 * round as u64 + rank as u64);
                let mut a = input.clone();
                let mut b = input;
                let ra = hitopk_all_reduce_ef_scratch(
                    peer, &mut a, m, n, rho, &mut lib.0, &mut lib.1, &mut lib.2,
                );
                let (rb, stats) = hitopk_ef_recomposed(
                    peer,
                    &mut b,
                    m,
                    n,
                    rho,
                    &mut ours.0,
                    &mut ours.1,
                    &mut ours.2,
                    &mut tracer,
                    round,
                );
                assert_eq!(ra, rb);
                assert_eq!(stats.passes, 30);
                assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()));
                let (ea, eb) = (lib.1.residual(), ours.1.residual());
                assert!(ea.iter().zip(eb).all(|(p, q)| p.to_bits() == q.to_bits()));
            }
            tracer.into_spans()
        });
        for spans in &results {
            assert_eq!(spans.len(), 3 * 7);
            assert!(spans.iter().all(|s| s.parent.is_none()));
        }
    }
}
