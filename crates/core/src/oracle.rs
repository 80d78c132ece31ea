//! Reference implementations the word-wide round is tested against: the
//! merge scan that walks the codes edge by edge ([`per_edge_scan`]) and
//! the run look-ahead that reads the slots one by one
//! ([`per_slot_look_ahead`]).

use crate::config::GatherConfig;
use crate::merge::MergePattern;
use crate::runs::{Ahead, RunSlots};
use chain_sim::packed::{edge_offset, opposite};
use grid_geom::Offset;

/// What the per-edge scan reports; the vectors hold one entry per robot.
pub(crate) struct EdgeScan {
    /// Fired patterns: the runs from the first run boundary at or after
    /// index 0 on, then the fold tips by index.
    pub patterns: Vec<MergePattern>,
    /// Accumulated merge hop (`ZERO` = not a black).
    pub hop: Vec<Offset>,
    pub black: Vec<bool>,
    pub white: Vec<bool>,
    pub inherent_k: Vec<u8>,
}

/// The merge scan of a chain of `n` robots with edge codes `codes` under
/// the suppression flags `suppressed` (empty: none): maximal runs found
/// by comparing each code with the next, fold tips by a second sweep over
/// every robot.
pub(crate) fn per_edge_scan(
    n: usize,
    codes: &[u8],
    cfg: &GatherConfig,
    suppressed: &[bool],
) -> EdgeScan {
    let mut s = EdgeScan {
        patterns: Vec::new(),
        hop: vec![Offset::ZERO; n],
        black: vec![false; n],
        white: vec![false; n],
        inherent_k: vec![0; n],
    };
    if n < 4 {
        return s;
    }
    let succ = |i: usize| if i + 1 == n { 0 } else { i + 1 };
    let pred = |i: usize| if i == 0 { n - 1 } else { i - 1 };
    let max_k = cfg.effective_max_k();
    let push = |s: &mut EdgeScan, p: MergePattern| {
        let mut b = p.first_black;
        let mut any_suppressed = false;
        for _ in 0..p.k {
            s.inherent_k[b] = s.inherent_k[b].max(p.k.min(255) as u8);
            any_suppressed |= !suppressed.is_empty() && suppressed[b];
            b = succ(b);
        }
        if any_suppressed {
            return;
        }
        let mut b = p.first_black;
        for _ in 0..p.k {
            s.hop[b] += p.dir;
            s.black[b] = true;
            b = succ(b);
        }
        s.white[pred(p.first_black)] = true;
        s.white[b] = true;
        s.patterns.push(p);
    };

    let mut anchor = 0;
    while codes[pred(anchor)] == codes[anchor] {
        anchor += 1;
        if anchor == n {
            return s;
        }
    }
    let mut i = anchor;
    let mut flank_in = codes[pred(anchor)];
    let mut remaining = n;
    while remaining > 0 {
        let first = i;
        let u = codes[i];
        let mut len = 1;
        i = succ(i);
        while len < remaining && codes[i] == u {
            len += 1;
            i = succ(i);
        }
        let flank_out = codes[i];
        let k = len + 1;
        if k <= max_k && flank_in == opposite(flank_out) && (flank_out ^ u) & 1 == 1 {
            push(
                &mut s,
                MergePattern {
                    first_black: first,
                    k,
                    dir: edge_offset(flank_out),
                },
            );
        }
        flank_in = u;
        remaining -= len;
    }

    let mut s_in = codes[n - 1];
    for (i, &s_out) in codes.iter().enumerate() {
        if s_in == opposite(s_out) {
            push(
                &mut s,
                MergePattern {
                    first_black: i,
                    k: 1,
                    dir: edge_offset(s_out),
                },
            );
        }
        s_in = s_out;
    }
    s
}

/// The run look-ahead of robot `i`, slot by slot: what
/// [`crate::runs::look_ahead`] must return. Skips the walk when no slot
/// ahead is occupied and the window does not wrap around index 0, and
/// stops once an opposing run is known and the line has ended.
pub(crate) fn per_slot_look_ahead(
    slots: &[RunSlots],
    i: usize,
    d: isize,
    fold_side: Offset,
    horizon: usize,
    line_extent: isize,
) -> Ahead {
    let n = slots.len() as isize;
    let same_axis = |a: Offset, b: Offset| (a.dx == 0) == (b.dx == 0);
    let mut opposing: Option<(isize, Offset)> = None;
    let ahead = if d > 0 {
        slots.get(i + 1..=i + horizon)
    } else {
        i.checked_sub(horizon).map(|from| &slots[from..i])
    };
    let clear = ahead.is_some_and(|slots| slots.iter().all(|&s| s == RunSlots::EMPTY));
    for j in 1..=if clear { 0 } else { horizon as isize } {
        if opposing.is_some() && j > line_extent {
            break;
        }
        let s = slots[(i as isize + j * d).rem_euclid(n) as usize];
        if s == RunSlots::EMPTY {
            continue;
        }
        if let Some(side) = s.fold_side(d) {
            if same_axis(side, fold_side) && j <= line_extent {
                return Ahead::Sequent;
            }
        }
        if opposing.is_none() {
            if let Some(side) = s.fold_side(-d) {
                opposing = Some((j, side));
            }
        }
    }
    Ahead::Clear(opposing)
}
