//! Record-and-replay: a versioned, dependency-free binary run log.
//!
//! A [`ReplayWriter`] observer logs the initial chain plus one compact
//! delta per round — activation mask, applied hops (3-bit compass codes;
//! hops may be diagonal), merge/guard counters, and the [`RoundSummary`]
//! — into a self-contained byte blob. A
//! [`ReplayReader`] reconstructs every intermediate chain byte-identically
//! by re-applying the recorded hops through the engine's own
//! [`ClosedChain::apply_hops`] and [`ClosedChain::merge_pass`], verifying
//! the recorded counters as it goes: a truncated or bit-flipped replay
//! fails with a positioned [`ReplayError`], never a panic, and never a
//! silently wrong chain.
//!
//! # Format (version 1)
//!
//! All integers are LEB128 varints; signed values are zigzag-encoded.
//! Chain *edge* codes are the packed-chain alphabet (`E=00`, `S=01`,
//! `W=10`, `N=11`), four per byte, low bits first — taut edges are always
//! cardinal. Hop *direction* codes are 3 bits (hops may be diagonal):
//! index into `[E, NE, N, NW, W, SW, S, SE]`, bit-packed low bits first.
//!
//! ```text
//! header  := "GRPL" version:u8 n:varint x0:zvarint y0:zvarint
//!            edges[ceil((n-1)/4)]          -- codes of edges 0..n-1
//! round   := 0x01 round:varint flags:u8
//!            moved:varint removed:varint len_after:varint
//!            [guard:varint      if flags&0x02]
//!            [mask[ceil(n/8)]   if flags&0x01]  -- n = pre-round length
//!            movers[ceil(n/8)] dirs[ceil(3*moved/8)]
//! trailer := 0x02 kind:u8 rounds:varint
//!            [since_last_merge:varint  if kind=stalled]
//!            [len:varint error:utf8    if kind=chain-broken]
//! ```
//!
//! The closing edge `n-1 → 0` is implied and re-verified by chain
//! validation on decode. **Compatibility rule:** a reader accepts exactly
//! its own version byte; any format change (new flag bits included) bumps
//! the version. Replays are artifacts, not interchange — a version
//! mismatch is a positioned error, never a guess.
//!
//! # Live frames
//!
//! The same observer can additionally publish a self-contained
//! [`LiveFrame`] per round into a bounded [`FrameRing`] — the feed behind
//! a streaming watch endpoint. Frames are snapshots (full chain state),
//! not deltas, so a slow consumer can skip to the latest frame without
//! losing the ability to decode; the ring never blocks the publisher on a
//! stalled consumer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::chain::{ChainError, ClosedChain, SpliceLog};
use crate::engine::{Outcome, RoundSummary};
use crate::observe::{Observer, RoundCtx};
use crate::packed::{edge_code, walk, EDGE_E};
use crate::strategy::Strategy;
use grid_geom::{Offset, Point};

/// The four magic bytes opening every replay blob.
pub const REPLAY_MAGIC: [u8; 4] = *b"GRPL";

/// The format version this build writes and reads (see the
/// [module docs](self) compatibility rule).
pub const REPLAY_VERSION: u8 = 1;

const TAG_ROUND: u8 = 0x01;
const TAG_END: u8 = 0x02;

const FLAG_MASK: u8 = 0x01;
const FLAG_GUARD: u8 = 0x02;
const FLAG_GATHERED: u8 = 0x04;
/// Live-frame only: the run's outcome is decided.
const FLAG_FINISHED: u8 = 0x08;

const OUTCOME_GATHERED: u8 = 0;
const OUTCOME_ROUND_LIMIT: u8 = 1;
const OUTCOME_STALLED: u8 = 2;
const OUTCOME_CHAIN_BROKEN: u8 = 3;

// ---------------------------------------------------------------------------
// Varint / bitset primitives
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_bitset(buf: &mut Vec<u8>, bits: impl ExactSizeIterator<Item = bool>) {
    let n = bits.len();
    let start = buf.len();
    buf.resize(start + n.div_ceil(8), 0);
    for (i, bit) in bits.enumerate() {
        if bit {
            buf[start + i / 8] |= 1 << (i % 8);
        }
    }
}

fn put_codes(buf: &mut Vec<u8>, codes: impl ExactSizeIterator<Item = u8>) {
    let n = codes.len();
    let start = buf.len();
    buf.resize(start + n.div_ceil(4), 0);
    for (i, code) in codes.enumerate() {
        buf[start + i / 4] |= (code & 3) << (2 * (i % 4));
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A positioned replay decode failure: `offset` is the byte position in
/// the blob at which the problem was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Byte offset into the replay blob.
    pub offset: usize,
    /// What went wrong there.
    pub what: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ReplayError {}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn err(&self, what: impl Into<String>) -> ReplayError {
        ReplayError {
            offset: self.pos,
            what: what.into(),
        }
    }

    fn u8(&mut self) -> Result<u8, ReplayError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of replay"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, ReplayError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << (7 * shift);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint longer than 10 bytes"))
    }

    fn zvarint(&mut self) -> Result<i64, ReplayError> {
        Ok(unzigzag(self.varint()?))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReplayError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| self.err(format!("unexpected end of replay (need {n} bytes)")))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

fn bitset_get(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

fn code_get(bytes: &[u8], i: usize) -> u8 {
    (bytes[i / 4] >> (2 * (i % 4))) & 3
}

/// The eight legal non-zero hops (hops may be diagonal, unlike taut chain
/// edges), counter-clockwise from east: the 3-bit hop-direction alphabet.
const HOP_DIRS: [Offset; 8] = [
    Offset { dx: 1, dy: 0 },
    Offset { dx: 1, dy: 1 },
    Offset { dx: 0, dy: 1 },
    Offset { dx: -1, dy: 1 },
    Offset { dx: -1, dy: 0 },
    Offset { dx: -1, dy: -1 },
    Offset { dx: 0, dy: -1 },
    Offset { dx: 1, dy: -1 },
];

fn hop_code(h: Offset) -> Option<u8> {
    HOP_DIRS.iter().position(|d| *d == h).map(|i| i as u8)
}

fn put_codes3(buf: &mut Vec<u8>, codes: impl ExactSizeIterator<Item = u8>) {
    let n = codes.len();
    let start = buf.len();
    buf.resize(start + (n * 3).div_ceil(8), 0);
    for (i, code) in codes.enumerate() {
        let bit = i * 3;
        let v = u16::from(code & 7) << (bit % 8);
        buf[start + bit / 8] |= (v & 0xff) as u8;
        if v > 0xff {
            buf[start + bit / 8 + 1] |= (v >> 8) as u8;
        }
    }
}

fn code3_get(bytes: &[u8], i: usize) -> u8 {
    let bit = i * 3;
    let mut v = u16::from(bytes[bit / 8]) >> (bit % 8);
    if bit % 8 > 5 {
        v |= u16::from(bytes[bit / 8 + 1]) << (8 - bit % 8);
    }
    (v & 7) as u8
}

/// Encode a taut chain as origin + 2-bit edge codes (the header/frame
/// geometry payload).
fn put_chain(buf: &mut Vec<u8>, chain: &ClosedChain) {
    let n = chain.len();
    put_varint(buf, n as u64);
    let origin = chain.origin();
    put_varint(buf, zigzag(origin.x));
    put_varint(buf, zigzag(origin.y));
    put_codes(buf, taut_codes(chain));
}

/// The codes of edges `0..len-1` of a taut chain (the closing edge is
/// implied).
fn taut_codes(chain: &ClosedChain) -> impl ExactSizeIterator<Item = u8> + '_ {
    debug_assert_eq!(chain.validate(), Ok(()));
    chain.codes()[..chain.len() - 1].iter().copied()
}

/// The chain of `n` robots with robot 0 at `origin` and the packed 2-bit
/// codes of edges `0..n-1`; the closing edge is the step from the walk's
/// end back to `origin`. A walk that ends on `origin` or more than one
/// step from it is no chain: the error is [`ClosedChain::new`]'s for those
/// points.
fn chain_from_codes(origin: Point, n: usize, packed: &[u8]) -> Result<ClosedChain, ChainError> {
    if n < 2 {
        return ClosedChain::new(vec![origin; n]);
    }
    let mut codes: Vec<u8> = (0..n - 1).map(|i| code_get(packed, i)).collect();
    let last = walk(origin, &codes);
    // Without a unit step back, any code makes `from_codes` report the gap.
    codes.push(edge_code(origin - last).unwrap_or(EDGE_E));
    ClosedChain::from_codes(origin, codes)
}

/// Decode the origin + edge-code geometry payload back into a chain.
fn read_chain(cur: &mut Cursor<'_>) -> Result<ClosedChain, ReplayError> {
    let n = cur.varint()? as usize;
    if n == 0 {
        return Err(cur.err("chain length 0"));
    }
    // A chain longer than the blob itself is corrupt; this bound keeps a
    // bit-flipped length from provoking a huge allocation.
    if n > cur.data.len().saturating_mul(8) + 8 {
        return Err(cur.err(format!("implausible chain length {n}")));
    }
    let origin = Point::new(cur.zvarint()?, cur.zvarint()?);
    let edges = cur.bytes((n - 1).div_ceil(4))?;
    chain_from_codes(origin, n, edges)
        .map_err(|e| cur.err(format!("decoded chain is invalid: {e}")))
}

// ---------------------------------------------------------------------------
// Replay outcome (the trailer)
// ---------------------------------------------------------------------------

/// How the recorded run ended — [`Outcome`] with the chain error flattened
/// to its display string (a replay is an artifact; the error is carried
/// for reporting, not for re-matching).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The chain gathered.
    Gathered {
        /// Rounds executed.
        rounds: u64,
    },
    /// The round limit tripped.
    RoundLimit {
        /// Rounds executed.
        rounds: u64,
    },
    /// The run stalled (no merge inside the stall window, or quiescence).
    Stalled {
        /// Rounds executed.
        rounds: u64,
        /// Rounds since the last merge when the stall was declared.
        since_last_merge: u64,
    },
    /// The strategy broke the chain.
    ChainBroken {
        /// Rounds completed before the breaking round.
        rounds: u64,
        /// The chain error, as displayed.
        error: String,
    },
}

impl ReplayOutcome {
    /// Rounds executed before the outcome was decided.
    pub fn rounds(&self) -> u64 {
        match self {
            ReplayOutcome::Gathered { rounds }
            | ReplayOutcome::RoundLimit { rounds }
            | ReplayOutcome::Stalled { rounds, .. }
            | ReplayOutcome::ChainBroken { rounds, .. } => *rounds,
        }
    }

    /// The outcome's campaign-store name (`gathered`, `round-limit`,
    /// `stalled`, `chain-broken`).
    pub fn name(&self) -> &'static str {
        match self {
            ReplayOutcome::Gathered { .. } => "gathered",
            ReplayOutcome::RoundLimit { .. } => "round-limit",
            ReplayOutcome::Stalled { .. } => "stalled",
            ReplayOutcome::ChainBroken { .. } => "chain-broken",
        }
    }

    /// Flatten an engine [`Outcome`] into its replay form (what the
    /// trailer of a recorded run of that outcome decodes to).
    pub fn from_outcome(outcome: &Outcome) -> Self {
        match outcome {
            Outcome::Gathered { rounds } => ReplayOutcome::Gathered { rounds: *rounds },
            Outcome::RoundLimit { rounds } => ReplayOutcome::RoundLimit { rounds: *rounds },
            Outcome::Stalled {
                rounds,
                since_last_merge,
            } => ReplayOutcome::Stalled {
                rounds: *rounds,
                since_last_merge: *since_last_merge,
            },
            Outcome::ChainBroken { rounds, error } => ReplayOutcome::ChainBroken {
                rounds: *rounds,
                error: error.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

/// A shared byte slot the [`ReplayWriter`] flushes the finished replay
/// into. Drivers consume the simulation, so the sink is how the bytes
/// escape the run: clone it, hand one end to the writer, read the other
/// after the run.
#[derive(Clone, Debug, Default)]
pub struct ReplaySink {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl ReplaySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded replay, leaving the sink empty. Empty until the
    /// run's outcome is decided ([`Observer::on_finish`]).
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.lock())
    }

    /// `true` while no finished replay has been flushed.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.bytes.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Live frames + the ring
// ---------------------------------------------------------------------------

/// One self-contained live snapshot of a running simulation: counters plus
/// the full chain geometry, decodable without any other frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveFrame {
    /// Rounds completed (0 = the initial configuration).
    pub round: u64,
    /// Chain length at this frame.
    pub len: usize,
    /// Total robots removed by merges so far.
    pub removed_total: u64,
    /// Total guard-cancelled hops so far.
    pub guard_cancels: u64,
    /// Whether the gathering criterion holds.
    pub gathered: bool,
    /// Whether the run's outcome has been decided (final frame).
    pub finished: bool,
    /// Position of robot 0.
    pub origin: Point,
    /// Packed 2-bit codes of edges `0..len-1` (see [`crate::packed`]).
    pub codes: Vec<u8>,
}

impl LiveFrame {
    /// Snapshot a chain plus its run counters into a frame.
    pub fn from_chain(
        chain: &ClosedChain,
        round: u64,
        removed_total: u64,
        guard_cancels: u64,
        finished: bool,
    ) -> Self {
        let mut codes = Vec::new();
        put_codes(&mut codes, taut_codes(chain));
        LiveFrame {
            round,
            len: chain.len(),
            removed_total,
            guard_cancels,
            gathered: chain.is_gathered(),
            finished,
            origin: chain.origin(),
            codes,
        }
    }

    /// Encode the frame as one self-delimiting binary record (the watch
    /// stream sends one encoded frame per HTTP chunk).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.codes.len());
        buf.push(REPLAY_VERSION);
        let mut flags = 0u8;
        if self.gathered {
            flags |= FLAG_GATHERED;
        }
        if self.finished {
            flags |= FLAG_FINISHED;
        }
        buf.push(flags);
        put_varint(&mut buf, self.round);
        put_varint(&mut buf, self.len as u64);
        put_varint(&mut buf, self.removed_total);
        put_varint(&mut buf, self.guard_cancels);
        put_varint(&mut buf, zigzag(self.origin.x));
        put_varint(&mut buf, zigzag(self.origin.y));
        buf.extend_from_slice(&self.codes);
        buf
    }

    /// Decode one frame from exactly `bytes` (as delimited by the
    /// transport).
    pub fn decode(bytes: &[u8]) -> Result<Self, ReplayError> {
        let mut cur = Cursor::new(bytes);
        let version = cur.u8()?;
        if version != REPLAY_VERSION {
            return Err(cur.err(format!(
                "unsupported frame version {version} (this build reads {REPLAY_VERSION})"
            )));
        }
        let flags = cur.u8()?;
        let round = cur.varint()?;
        let len = cur.varint()? as usize;
        if len == 0 {
            return Err(cur.err("frame chain length 0"));
        }
        let removed_total = cur.varint()?;
        let guard_cancels = cur.varint()?;
        let origin = Point::new(cur.zvarint()?, cur.zvarint()?);
        let codes = cur.bytes((len - 1).div_ceil(4))?.to_vec();
        if !cur.at_end() {
            return Err(cur.err("trailing bytes after frame"));
        }
        Ok(LiveFrame {
            round,
            len,
            removed_total,
            guard_cancels,
            gathered: flags & FLAG_GATHERED != 0,
            finished: flags & FLAG_FINISHED != 0,
            origin,
            codes,
        })
    }

    /// Reconstruct the frame's chain (for rendering).
    pub fn chain(&self) -> Result<ClosedChain, ReplayError> {
        if self.codes.len() < self.len.saturating_sub(1).div_ceil(4) {
            return Err(ReplayError {
                offset: 4 * self.codes.len(),
                what: "frame edge codes shorter than its length".to_string(),
            });
        }
        chain_from_codes(self.origin, self.len, &self.codes).map_err(|e| ReplayError {
            offset: 0,
            what: format!("frame chain is invalid: {e}"),
        })
    }
}

/// A bounded single-producer broadcast ring of encoded [`LiveFrame`]s.
///
/// The publisher (the simulation worker) overwrites the oldest slot and
/// never waits for consumers; a consumer that falls more than a ring
/// behind skips forward to the newest frame ([`FrameRing::next`]). Frames
/// are self-contained snapshots, so skipping loses nothing but
/// intermediate pictures. Slot access is a per-slot mutex held only for
/// an `Arc` clone/store — the publisher's critical section is O(1) and a
/// consumer stalled in its socket write holds no lock at all.
#[derive(Debug)]
pub struct FrameRing {
    slots: Vec<Mutex<Option<Arc<[u8]>>>>,
    head: AtomicU64,
    closed: AtomicBool,
}

impl FrameRing {
    /// A ring holding the latest `capacity` frames (clamped to ≥ 2).
    pub fn new(capacity: usize) -> Arc<FrameRing> {
        let capacity = capacity.max(2);
        Arc::new(FrameRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// Publish one encoded frame, overwriting the oldest slot.
    pub fn publish(&self, frame: Vec<u8>) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = seq as usize % self.slots.len();
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::from(frame));
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Mark the stream complete: no further frames will be published.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// `true` once the publisher has closed the ring.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Total frames ever published.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// The next frame for a consumer at `*cursor` (frames consumed so
    /// far). Returns `None` when the consumer is caught up — poll again,
    /// or stop once [`FrameRing::is_closed`]. A consumer that lagged past
    /// the ring's capacity is skipped forward to the latest frame.
    pub fn next(&self, cursor: &mut u64) -> Option<Arc<[u8]>> {
        let head = self.head.load(Ordering::Acquire);
        if *cursor >= head {
            return None;
        }
        if head - *cursor > self.slots.len() as u64 {
            *cursor = head - 1;
        }
        let slot = *cursor as usize % self.slots.len();
        let frame = self.slots[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        *cursor += 1;
        frame
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The recording observer: logs the run into a [`ReplaySink`] (complete
/// replay blob, flushed when the outcome is decided) and optionally
/// publishes per-round [`LiveFrame`]s into a [`FrameRing`].
///
/// Strategy-agnostic, like [`Recorder`](crate::Recorder): attach with
/// [`Sim::observe`](crate::Sim::observe) or
/// [`Sim::add_observer`](crate::Sim::add_observer) on any strategy.
#[derive(Debug, Default)]
pub struct ReplayWriter {
    buf: Vec<u8>,
    sink: ReplaySink,
    ring: Option<Arc<FrameRing>>,
    removed_total: u64,
    guard_total: u64,
}

impl ReplayWriter {
    /// A writer flushing the finished replay into `sink`.
    pub fn new(sink: ReplaySink) -> Self {
        ReplayWriter {
            sink,
            ..Self::default()
        }
    }

    /// Additionally publish one encoded [`LiveFrame`] per round into
    /// `ring` (the watch feed).
    pub fn with_ring(mut self, ring: Arc<FrameRing>) -> Self {
        self.ring = Some(ring);
        self
    }

    fn frame(&self, chain: &ClosedChain, round: u64, finished: bool) {
        if let Some(ring) = &self.ring {
            ring.publish(
                LiveFrame::from_chain(chain, round, self.removed_total, self.guard_total, finished)
                    .encode(),
            );
        }
    }
}

impl<S: Strategy> Observer<S> for ReplayWriter {
    fn on_init(&mut self, chain: &ClosedChain, _strategy: &S) {
        self.buf.clear();
        self.buf.extend_from_slice(&REPLAY_MAGIC);
        self.buf.push(REPLAY_VERSION);
        put_chain(&mut self.buf, chain);
        self.removed_total = 0;
        self.guard_total = 0;
        self.frame(chain, 0, false);
    }

    fn on_round(&mut self, ctx: &RoundCtx<'_>, _strategy: &mut S) {
        let s = ctx.summary;
        self.removed_total += s.removed as u64;
        self.guard_total += ctx.guard_cancels as u64;

        self.buf.push(TAG_ROUND);
        put_varint(&mut self.buf, s.round);
        let masked = ctx.active.iter().any(|a| !a);
        let mut flags = 0u8;
        if masked {
            flags |= FLAG_MASK;
        }
        if ctx.guard_cancels > 0 {
            flags |= FLAG_GUARD;
        }
        if s.gathered {
            flags |= FLAG_GATHERED;
        }
        self.buf.push(flags);
        put_varint(&mut self.buf, s.moved as u64);
        put_varint(&mut self.buf, s.removed as u64);
        put_varint(&mut self.buf, s.len_after as u64);
        if ctx.guard_cancels > 0 {
            put_varint(&mut self.buf, ctx.guard_cancels as u64);
        }
        if masked {
            put_bitset(&mut self.buf, ctx.active.iter().copied());
        }
        put_bitset(&mut self.buf, ctx.hops.iter().map(|h| *h != Offset::ZERO));
        put_codes3(
            &mut self.buf,
            HopCodes::new(ctx.hops.iter().filter(|h| **h != Offset::ZERO), s.moved),
        );

        self.frame(ctx.chain, s.round + 1, false);
    }

    fn on_finish(&mut self, chain: &ClosedChain, _strategy: &S, outcome: &Outcome) {
        let mut out = self.buf.clone();
        out.push(TAG_END);
        match outcome {
            Outcome::Gathered { rounds } => {
                out.push(OUTCOME_GATHERED);
                put_varint(&mut out, *rounds);
            }
            Outcome::RoundLimit { rounds } => {
                out.push(OUTCOME_ROUND_LIMIT);
                put_varint(&mut out, *rounds);
            }
            Outcome::Stalled {
                rounds,
                since_last_merge,
            } => {
                out.push(OUTCOME_STALLED);
                put_varint(&mut out, *rounds);
                put_varint(&mut out, *since_last_merge);
            }
            Outcome::ChainBroken { rounds, error } => {
                out.push(OUTCOME_CHAIN_BROKEN);
                put_varint(&mut out, *rounds);
                let msg = error.to_string();
                put_varint(&mut out, msg.len() as u64);
                out.extend_from_slice(msg.as_bytes());
            }
        }
        *self.sink.lock() = out;
        self.frame(chain, outcome.rounds(), true);
        if let Some(ring) = &self.ring {
            ring.close();
        }
    }
}

/// ExactSizeIterator adapter mapping non-zero hops to 3-bit direction
/// codes (the filtered iterator loses its size hint; the count is known
/// from the summary).
struct HopCodes<I> {
    inner: I,
    left: usize,
}

impl<I> HopCodes<I> {
    fn new(inner: I, count: usize) -> Self {
        HopCodes { inner, left: count }
    }
}

impl<'a, I: Iterator<Item = &'a Offset>> Iterator for HopCodes<I> {
    type Item = u8;
    fn next(&mut self) -> Option<u8> {
        let h = self.inner.next()?;
        self.left = self.left.saturating_sub(1);
        Some(hop_code(*h).expect("applied hops have components in -1..=1"))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<'a, I: Iterator<Item = &'a Offset>> ExactSizeIterator for HopCodes<I> {}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One replayed round: the reconstructed [`RoundSummary`] plus the
/// recorded guard and activation detail. The post-round chain is
/// [`ReplayReader::chain`].
#[derive(Clone, Debug)]
pub struct ReplayRound {
    /// The round's summary, re-derived and verified against the record.
    pub summary: RoundSummary,
    /// Hops the chain-safety guard cancelled this round.
    pub guard_cancels: u64,
    /// The activation mask (all-true when the round was unmasked/FSYNC).
    pub active: Vec<bool>,
}

/// Streaming decoder for a replay blob: reconstructs every intermediate
/// chain by re-applying the recorded per-round deltas, verifying the
/// recorded counters against the reconstruction as it goes.
///
/// Iterate with [`ReplayReader::next_round`] until it returns `Ok(None)`;
/// the trailer's [`ReplayOutcome`] is then available via
/// [`ReplayReader::outcome`]. Any truncation or corruption surfaces as a
/// positioned [`ReplayError`] — the reader never panics on malformed
/// input.
#[derive(Debug)]
pub struct ReplayReader {
    data: Vec<u8>,
    pos: usize,
    chain: ClosedChain,
    splice: SpliceLog,
    hops: Vec<Offset>,
    rounds_read: u64,
    outcome: Option<ReplayOutcome>,
}

impl ReplayReader {
    /// Parse the header and reconstruct the initial chain.
    pub fn new(bytes: &[u8]) -> Result<Self, ReplayError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.bytes(4)?;
        if magic != REPLAY_MAGIC {
            return Err(ReplayError {
                offset: 0,
                what: "not a replay (bad magic)".to_string(),
            });
        }
        let version = cur.u8()?;
        if version != REPLAY_VERSION {
            return Err(ReplayError {
                offset: 4,
                what: format!(
                    "unsupported replay version {version} (this build reads {REPLAY_VERSION})"
                ),
            });
        }
        let chain = read_chain(&mut cur)?;
        let pos = cur.pos;
        Ok(ReplayReader {
            data: bytes.to_vec(),
            pos,
            chain,
            splice: SpliceLog::default(),
            hops: Vec::new(),
            rounds_read: 0,
            outcome: None,
        })
    }

    /// The current chain: the initial configuration before the first
    /// [`ReplayReader::next_round`], then the post-round chain after each.
    pub fn chain(&self) -> &ClosedChain {
        &self.chain
    }

    /// Rounds replayed so far.
    pub fn rounds_read(&self) -> u64 {
        self.rounds_read
    }

    /// The trailer outcome — `Some` once [`ReplayReader::next_round`] has
    /// returned `Ok(None)`.
    pub fn outcome(&self) -> Option<&ReplayOutcome> {
        self.outcome.as_ref()
    }

    /// Replay the next round: decode its delta, re-apply it to the chain,
    /// and verify the recorded counters against the reconstruction.
    /// Returns `Ok(None)` once the trailer is reached.
    pub fn next_round(&mut self) -> Result<Option<ReplayRound>, ReplayError> {
        if self.outcome.is_some() {
            return Ok(None);
        }
        let mut cur = Cursor {
            data: &self.data,
            pos: self.pos,
        };
        let tag = cur.u8()?;
        if tag == TAG_END {
            let outcome = Self::read_trailer(&mut cur, self.rounds_read)?;
            self.pos = cur.pos;
            self.outcome = Some(outcome);
            return Ok(None);
        }
        if tag != TAG_ROUND {
            return Err(ReplayError {
                offset: cur.pos - 1,
                what: format!("unknown record tag 0x{tag:02x}"),
            });
        }
        let round = cur.varint()?;
        if round != self.rounds_read {
            return Err(cur.err(format!(
                "round {round} out of sequence (expected {})",
                self.rounds_read
            )));
        }
        let flags = cur.u8()?;
        if flags & !(FLAG_MASK | FLAG_GUARD | FLAG_GATHERED) != 0 {
            return Err(cur.err(format!("unknown flag bits 0x{flags:02x}")));
        }
        let moved = cur.varint()? as usize;
        let removed = cur.varint()? as usize;
        let len_after = cur.varint()? as usize;
        let guard_cancels = if flags & FLAG_GUARD != 0 {
            cur.varint()?
        } else {
            0
        };
        let n = self.chain.len();
        if moved > n {
            return Err(cur.err(format!("{moved} movers on a chain of {n}")));
        }
        let active: Vec<bool> = if flags & FLAG_MASK != 0 {
            let mask = cur.bytes(n.div_ceil(8))?;
            (0..n).map(|i| bitset_get(mask, i)).collect()
        } else {
            vec![true; n]
        };
        let movers = cur.bytes(n.div_ceil(8))?.to_vec();
        let dirs = cur.bytes((moved * 3).div_ceil(8))?;

        self.hops.clear();
        self.hops.resize(n, Offset::ZERO);
        let mut next_dir = 0usize;
        for (i, hop) in self.hops.iter_mut().enumerate() {
            if bitset_get(&movers, i) {
                if next_dir >= moved {
                    return Err(cur.err(format!("more than {moved} mover bits set")));
                }
                *hop = HOP_DIRS[code3_get(dirs, next_dir) as usize];
                next_dir += 1;
            }
        }
        if next_dir != moved {
            return Err(cur.err(format!("{next_dir} mover bits set, record says {moved}")));
        }

        let at = cur.pos;
        let fail = |what: String| ReplayError { offset: at, what };
        self.chain
            .apply_hops(&self.hops)
            .map_err(|e| fail(format!("round {round}: recorded hops break the chain: {e}")))?;
        let merged = self.chain.merge_pass(&mut self.splice);
        if merged != removed {
            return Err(fail(format!(
                "round {round}: reconstruction merged {merged} robots, record says {removed}"
            )));
        }
        if self.chain.len() != len_after {
            return Err(fail(format!(
                "round {round}: reconstructed length {}, record says {len_after}",
                self.chain.len()
            )));
        }
        let gathered = self.chain.is_gathered();
        if gathered != (flags & FLAG_GATHERED != 0) {
            return Err(fail(format!(
                "round {round}: gathered flag disagrees with the reconstruction"
            )));
        }

        self.pos = cur.pos;
        self.rounds_read += 1;
        Ok(Some(ReplayRound {
            summary: RoundSummary {
                round,
                moved,
                removed,
                len_after,
                gathered,
            },
            guard_cancels,
            active,
        }))
    }

    fn read_trailer(cur: &mut Cursor<'_>, rounds_read: u64) -> Result<ReplayOutcome, ReplayError> {
        let kind = cur.u8()?;
        let rounds = cur.varint()?;
        let outcome = match kind {
            OUTCOME_GATHERED => ReplayOutcome::Gathered { rounds },
            OUTCOME_ROUND_LIMIT => ReplayOutcome::RoundLimit { rounds },
            OUTCOME_STALLED => ReplayOutcome::Stalled {
                rounds,
                since_last_merge: cur.varint()?,
            },
            OUTCOME_CHAIN_BROKEN => {
                let len = cur.varint()? as usize;
                let bytes = cur.bytes(len)?;
                let error = std::str::from_utf8(bytes)
                    .map_err(|_| cur.err("chain-broken message is not UTF-8"))?
                    .to_string();
                ReplayOutcome::ChainBroken { rounds, error }
            }
            other => return Err(cur.err(format!("unknown outcome kind {other}"))),
        };
        if outcome.rounds() != rounds_read {
            return Err(cur.err(format!(
                "trailer says {} rounds, replayed {rounds_read}",
                outcome.rounds()
            )));
        }
        if !cur.at_end() {
            return Err(cur.err("trailing bytes after the trailer"));
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunLimits, Sim};
    use crate::observe::Recorder;
    use crate::strategy::Strategy;

    /// Shrink toward the centroid-ish: a strategy that actually moves and
    /// merges, so replays carry non-trivial rounds.
    struct PullEast;
    impl Strategy for PullEast {
        fn name(&self) -> &'static str {
            "pull-east"
        }
        fn init(&mut self, _chain: &ClosedChain) {}
        fn compute(&mut self, chain: &ClosedChain, _round: u64, hops: &mut [Offset]) {
            // Every robot strictly west of its successor steps east iff
            // both neighbors stay adjacent — a crude gatherer good enough
            // to generate moves and merges deterministically.
            for (i, hop) in hops.iter_mut().enumerate().take(chain.len()) {
                let p = chain.pos(i);
                let prev = chain.pos(chain.nb(i, -1));
                let next = chain.pos(chain.nb(i, 1));
                let q = grid_geom::Point::new(p.x + 1, p.y);
                let adj = |a: grid_geom::Point, b: grid_geom::Point| {
                    (a.x - b.x).abs() + (a.y - b.y).abs() <= 1
                };
                if p.x < next.x.max(prev.x) && adj(q, prev) && adj(q, next) {
                    *hop = Offset::new(1, 0);
                }
            }
        }
    }

    fn ring8() -> ClosedChain {
        ClosedChain::new(
            [
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (3, 1),
                (2, 1),
                (1, 1),
                (0, 1),
            ]
            .iter()
            .map(|&(x, y)| grid_geom::Point::new(x, y))
            .collect(),
        )
        .unwrap()
    }

    type Snapshots = Vec<(u64, Vec<grid_geom::Point>)>;

    fn record(limits: RunLimits) -> (Vec<u8>, Snapshots, Outcome) {
        let sink = ReplaySink::new();
        let mut sim = Sim::new(ring8(), PullEast)
            .observe(Recorder::snapshots(1, usize::MAX))
            .observe(ReplayWriter::new(sink.clone()));
        let outcome = sim.run(limits);
        let snapshots = sim
            .observer_mut::<Recorder>()
            .unwrap()
            .take_trace()
            .snapshots;
        (sink.take(), snapshots, outcome)
    }

    fn limits() -> RunLimits {
        RunLimits {
            max_rounds: 64,
            stall_window: 64,
        }
    }

    #[test]
    fn roundtrip_reconstructs_every_chain() {
        let (blob, snapshots, outcome) = record(limits());
        assert!(!snapshots.is_empty());
        let mut reader = ReplayReader::new(&blob).unwrap();
        assert_eq!(reader.chain().positions(), ring8().positions());
        let mut replayed = 0u64;
        while let Some(round) = reader.next_round().unwrap() {
            let (r, expected) = &snapshots[replayed as usize];
            assert_eq!(round.summary.round, *r);
            assert_eq!(reader.chain().positions(), expected.as_slice());
            assert_eq!(round.summary.len_after, expected.len());
            replayed += 1;
        }
        assert_eq!(replayed, outcome.rounds());
        assert_eq!(reader.outcome().unwrap().rounds(), outcome.rounds());
        // Post-trailer calls stay `Ok(None)`.
        assert!(reader.next_round().unwrap().is_none());
    }

    #[test]
    fn every_truncation_is_a_positioned_error() {
        let (blob, _, _) = record(limits());
        for cut in 0..blob.len() {
            let short = &blob[..cut];
            let failed = match ReplayReader::new(short) {
                Err(e) => {
                    assert!(e.offset <= cut, "offset {} past cut {cut}", e.offset);
                    true
                }
                Ok(mut reader) => loop {
                    match reader.next_round() {
                        Err(e) => {
                            assert!(e.offset <= cut, "offset {} past cut {cut}", e.offset);
                            break true;
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break false,
                    }
                },
            };
            assert!(failed, "truncation at {cut}/{} not detected", blob.len());
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let (blob, _, _) = record(limits());
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut corrupt = blob.clone();
                corrupt[byte] ^= 1 << bit;
                // Either a positioned error or a (rare) benign flip —
                // never a panic, and never an unverified silent pass:
                // drive the reader to its end.
                if let Ok(mut reader) = ReplayReader::new(&corrupt) {
                    while let Ok(Some(_)) = reader.next_round() {}
                }
            }
        }
    }

    #[test]
    fn flipped_payload_is_detected() {
        let (blob, _, _) = record(limits());
        // The first round record starts where the header parse stopped.
        let header_end = ReplayReader::new(&blob).unwrap().pos;
        assert_eq!(blob[header_end], TAG_ROUND);
        // Clobber a byte inside the first round record's payload.
        let mut corrupt = blob.clone();
        corrupt[header_end + 3] ^= 0xff;
        let mut failed = ReplayReader::new(&corrupt).is_err();
        if let Ok(mut r) = ReplayReader::new(&corrupt) {
            loop {
                match r.next_round() {
                    Err(e) => {
                        assert!(e.offset >= header_end);
                        failed = true;
                        break;
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                }
            }
        }
        assert!(failed, "payload corruption went undetected");
        // The pristine blob still replays to its outcome.
        let mut reader = ReplayReader::new(&blob).unwrap();
        while let Some(_r) = reader.next_round().unwrap() {}
        assert!(reader.outcome().is_some());
    }

    /// A walk that does not close — it ends two steps from its origin, or
    /// on it — is a positioned error in a replay header and in a frame,
    /// never a panic.
    #[test]
    fn unclosed_walks_are_positioned_errors() {
        use crate::packed::{EDGE_N, EDGE_W};
        for codes in [[EDGE_E, EDGE_E], [EDGE_E, EDGE_W], [EDGE_N, EDGE_E]] {
            let mut blob = REPLAY_MAGIC.to_vec();
            blob.push(REPLAY_VERSION);
            for v in [3, zigzag(5), zigzag(-2)] {
                put_varint(&mut blob, v);
            }
            put_codes(&mut blob, codes.into_iter());
            let Err(err) = ReplayReader::new(&blob) else {
                panic!("{codes:?}: an open walk is no chain");
            };
            assert_eq!(err.offset, blob.len(), "{codes:?}: {}", err.what);
            assert!(
                err.what.starts_with("decoded chain is invalid"),
                "{}",
                err.what
            );

            let mut packed = Vec::new();
            put_codes(&mut packed, codes.into_iter());
            let frame = LiveFrame {
                round: 1,
                len: 3,
                removed_total: 0,
                guard_cancels: 0,
                gathered: false,
                finished: false,
                origin: Point::new(5, -2),
                codes: packed,
            };
            let decoded = LiveFrame::decode(&frame.encode()).unwrap();
            let err = decoded.chain().expect_err("an open walk is no chain");
            assert!(
                err.what.starts_with("frame chain is invalid"),
                "{}",
                err.what
            );
        }
        // The walks that do close decode, a single robot included.
        let one = LiveFrame::from_chain(
            &ClosedChain::new(vec![Point::new(3, 4)]).unwrap(),
            0,
            0,
            0,
            true,
        );
        let chain = LiveFrame::decode(&one.encode()).unwrap().chain().unwrap();
        assert_eq!(chain.positions(), &[Point::new(3, 4)]);
    }

    #[test]
    fn frames_roundtrip_and_rings_skip() {
        let chain = ring8();
        let frame = LiveFrame::from_chain(&chain, 7, 3, 2, false);
        let decoded = LiveFrame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(decoded.chain().unwrap().positions(), chain.positions());

        let ring = FrameRing::new(4);
        for i in 0..10u64 {
            ring.publish(LiveFrame::from_chain(&chain, i, 0, 0, false).encode());
        }
        ring.close();
        let mut cursor = 0u64;
        let first = ring.next(&mut cursor).unwrap();
        // Lagged by 10 with capacity 4: skipped to the newest frame.
        assert_eq!(LiveFrame::decode(&first).unwrap().round, 9);
        assert!(ring.next(&mut cursor).is_none());
        assert!(ring.is_closed());
        assert_eq!(ring.head(), 10);
    }

    #[test]
    fn live_ring_records_through_the_writer() {
        let sink = ReplaySink::new();
        let ring = FrameRing::new(512);
        let mut sim = Sim::new(ring8(), PullEast)
            .observe(ReplayWriter::new(sink.clone()).with_ring(ring.clone()));
        let outcome = sim.run(limits());
        assert!(ring.is_closed());
        let mut cursor = 0u64;
        let mut last: Option<LiveFrame> = None;
        let mut frames = 0u64;
        while let Some(bytes) = ring.next(&mut cursor) {
            let f = LiveFrame::decode(&bytes).unwrap();
            if let Some(prev) = &last {
                assert!(f.round >= prev.round);
            }
            last = Some(f);
            frames += 1;
        }
        let last = last.unwrap();
        assert!(last.finished);
        assert_eq!(last.round, outcome.rounds());
        // init + per-round + final.
        assert_eq!(frames, outcome.rounds() + 2);
        assert!(!sink.is_empty());
    }
}
