//! Property tests for the memory substrate.

use proptest::prelude::*;
use rfdet_mem::{diff, PrivateSpace, StripAllocator};

const SPACE: u64 = 16 * 4096;

/// Reference model: a flat byte array.
fn model_write(model: &mut [u8], addr: u64, data: &[u8]) {
    model[addr as usize..addr as usize + data.len()].copy_from_slice(data);
}

fn arb_writes() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    prop::collection::vec(
        (0u64..SPACE - 64).prop_flat_map(|addr| {
            prop::collection::vec(any::<u8>(), 1..64).prop_map(move |d| (addr, d))
        }),
        0..40,
    )
}

proptest! {
    /// PrivateSpace behaves exactly like a flat byte array.
    #[test]
    fn space_matches_flat_model(writes in arb_writes()) {
        let mut space = PrivateSpace::new(SPACE, 4096);
        let mut model = vec![0u8; SPACE as usize];
        for (addr, data) in &writes {
            space.write(*addr, data);
            model_write(&mut model, *addr, data);
        }
        let mut got = vec![0u8; SPACE as usize];
        space.read(0, &mut got);
        prop_assert_eq!(got, model);
    }

    /// fork() is a point-in-time copy: later writes on either side are
    /// invisible to the other.
    #[test]
    fn fork_is_point_in_time(
        before in arb_writes(),
        parent_after in arb_writes(),
        child_after in arb_writes(),
    ) {
        let mut parent = PrivateSpace::new(SPACE, 4096);
        let mut model = vec![0u8; SPACE as usize];
        for (addr, data) in &before {
            parent.write(*addr, data);
            model_write(&mut model, *addr, data);
        }
        let mut child = parent.fork();
        let mut pmodel = model.clone();
        let mut cmodel = model;
        for (addr, data) in &parent_after {
            parent.write(*addr, data);
            model_write(&mut pmodel, *addr, data);
        }
        for (addr, data) in &child_after {
            child.write(*addr, data);
            model_write(&mut cmodel, *addr, data);
        }
        let mut got = vec![0u8; SPACE as usize];
        parent.read(0, &mut got);
        prop_assert_eq!(&got, &pmodel);
        child.read(0, &mut got);
        prop_assert_eq!(&got, &cmodel);
    }

    /// diff(snapshot, current) applied onto the snapshot reproduces the
    /// current page exactly — the round-trip DLRC propagation relies on.
    #[test]
    fn diff_apply_roundtrip(
        snapshot in prop::collection::vec(any::<u8>(), 256),
        current in prop::collection::vec(any::<u8>(), 256),
    ) {
        let mut runs = Vec::new();
        diff::diff_page(0, &snapshot, &current, &mut runs);
        let mut rebuilt = snapshot.clone();
        for r in &runs {
            rebuilt[r.addr as usize..r.end() as usize].copy_from_slice(&r.data);
        }
        prop_assert_eq!(rebuilt, current);
        // Runs never cover unchanged bytes (minimality → the §4.6
        // redundant-write policy).
        for r in &runs {
            for (i, &b) in r.data.iter().enumerate() {
                let idx = r.addr as usize + i;
                prop_assert_ne!(snapshot[idx], b);
            }
        }
        // Runs are sorted and non-overlapping.
        for w in runs.windows(2) {
            prop_assert!(w[0].end() <= w[1].addr);
        }
    }

    /// Differential pin: the chunked word-at-a-time kernel produces
    /// byte-for-byte the same run list as the retained scalar reference,
    /// at every buffer length (word-alignment edge cases included) and
    /// under arbitrary mutation patterns.
    #[test]
    fn chunked_diff_matches_scalar_reference(
        // 1..96 sweeps every length mod 8, covering partial-word tails.
        len in 1usize..96,
        base in prop::collection::vec(any::<u8>(), 96),
        flips in prop::collection::vec((0usize..96, any::<u8>()), 0..48),
        page_base in 0u64..1 << 40,
    ) {
        let snapshot = base[..len].to_vec();
        let mut current = snapshot.clone();
        for (pos, val) in flips {
            current[pos % len] = val;
        }
        let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
        diff::diff_page(page_base, &snapshot, &current, &mut chunked);
        diff::diff_page_scalar(page_base, &snapshot, &current, &mut scalar);
        prop_assert_eq!(chunked, scalar);
    }

    /// The targeted shapes the kernel's word loop can get wrong: runs
    /// touching either page edge, a fully dirty page, and identical pages
    /// — against the scalar reference on a real 4 KiB page.
    #[test]
    fn chunked_diff_edge_shapes(shape in 0u8..4, fill in any::<u8>(), seed in any::<u8>()) {
        let snapshot = vec![fill; 4096];
        let mut current = snapshot.clone();
        match shape {
            0 => { current[0] = fill.wrapping_add(1).wrapping_add(seed); }
            1 => { current[4095] = fill.wrapping_add(1).wrapping_add(seed); }
            2 => { for b in &mut current { *b = b.wrapping_add(1); } }
            _ => {} // identical pages
        }
        let (mut chunked, mut scalar) = (Vec::new(), Vec::new());
        diff::diff_page(8192, &snapshot, &current, &mut chunked);
        diff::diff_page_scalar(8192, &snapshot, &current, &mut scalar);
        prop_assert_eq!(&chunked, &scalar);
        match shape {
            2 => prop_assert_eq!(diff::runs_len(&chunked), 4096),
            3 => prop_assert!(chunked.is_empty()),
            _ => prop_assert_eq!(diff::runs_len(&chunked), 1),
        }
    }

    /// Allocations from all strips never overlap, regardless of
    /// interleaving.
    #[test]
    fn allocations_never_overlap(
        ops in prop::collection::vec((0u32..4, 1u64..500), 1..80)
    ) {
        let sa = StripAllocator::new(0, 32 << 20);
        let mut heaps: Vec<_> = (0..4).map(|t| sa.heap_for(t)).collect();
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (tid, size) in ops {
            let a = heaps[tid as usize].alloc(size, 8);
            let cls = size.max(16).next_power_of_two();
            for &(b, len) in &live {
                prop_assert!(a + cls <= b || b + len <= a,
                    "overlap: [{a:#x},{:#x}) vs [{b:#x},{:#x})", a + cls, b + len);
            }
            live.push((a, cls));
        }
    }
}
