(** Sharded offline replay: one PC trace, [n] domains, the sequential
    profile — exactly.

    A TEA replay is a DFA walk, so chunking a PC trace naively breaks at
    the seams: a worker starting mid-trace does not know the automaton
    state its chunk begins in. The packed image makes the fix cheap. The
    DFA's step is [in_trace_edge(state, pc)], else [head(pc)], else NTE —
    so at any index whose PC appears in {b no} state's in-trace label set,
    the next state is [head(pc)]-or-NTE {e regardless of the current
    state}. Call such indices {b sync points}. Real traces are full of
    them (every cold block is one).

    Each worker scans its chunk for the first sync point [k], seeds a
    private {!Tea_core.Replayer} (over a {!Tea_core.Packed.dup} sibling of
    the shared image) with that entry-independent state, and replays the
    exact suffix [k+1 .. hi). The driver then stitches sequentially:
    chunk 0 is replayed whole from NTE; for every later chunk it replays
    only the short uncertain prefix [lo .. k] from the true carried-in
    state (asserting it lands on the state the worker assumed) and adopts
    the worker's exit state. Every index is thus replayed exactly once,
    from exactly the state the sequential run would have been in — so the
    {!Profile.merge} of all the pieces is bit-identical to the sequential
    profile, including stats and simulated cycles (property-tested for
    1/2/4 domains). A chunk with no sync point degrades gracefully: the
    driver replays it entirely.

    {b Fused images and chunk boundaries.} The scheme carries over
    unchanged to an image with a fusion overlay: superstate matching in
    {!Tea_core.Replayer.feed_run} is bounded by the batch it was handed,
    so a signature run never reads across a chunk seam — it ends at the
    boundary and resumes (from the carried state, which bulk accounting
    maintains exactly) in the next chunk's replay. Because fusion is
    observationally the identity, sync-point detection, entry-state
    stitching and the merged profile are all untouched; only the
    inline-cache hit/miss split can differ, the same exception already
    documented for chunk-local ICs (property-tested for 1/2/4 domains in
    [test_fuse.ml]).

    {b Engine choice and replayer reuse.} Workers and the stitching
    driver replay through replayers built by the [make] factory
    (default: a packed-engine replayer over a {!Tea_core.Packed.dup}
    sibling). Passing a factory that compiles its dup
    ({!Tea_core.Replayer.create_compiled} over
    {!Tea_core.Compiled.of_packed}) runs every shard through
    closure-threaded dispatch; sync-point detection stays on the shared
    packed image, and since compiled dispatch is batch-bounded exactly
    like the interpreted loops, the merged profile remains bit-identical
    at any job count (property-tested in [test_compile.ml]).

    [make] runs at most once per chunk slot ([<= Pool.jobs]) per image
    per call, on first use of the slot: chunk [i] of every span replayed
    in one call ({!replay_runs}: every run of one asid) goes to slot [i],
    which is re-entered with {!Tea_core.Replayer.set_state} (no
    accounting) and snapshotted once at the end. Slot 0 is also the
    driver: after chunk 0 it already holds the state the stitch carries
    into chunk 1. The factory must therefore still dup (never share
    mutable counters between slots) and must keep no per-run state
    outside the replayer it returns. Reuse is exact because a snapshot is
    an additive sum that leaves out the inline-cache hit/miss split (a
    reused replayer's inline cache is warm from earlier runs), and
    simulated cycles are a pure function of the stream. *)

val replay_span :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  ?entry:Tea_core.Automaton.state ->
  ?insns:int array ->
  int array ->
  off:int ->
  len:int ->
  Profile.t * Tea_core.Automaton.state
(** [replay_span pool packed ~entry starts ~off ~len] — shard
    [starts.(off..off+len-1)] across the pool, entering the span in
    state [entry] (default NTE), and return the merged profile together
    with the true exit state of the walk. The generalization that makes
    {e segmented} sharded replay possible: replay a prefix span, swap
    images ({!Tea_core.Replayer.rebind} semantics — translate the exit
    state through [orig_of] and pass it as the next span's [entry]),
    replay the rest, and the merged profiles equal the sequential
    swapped run bit-for-bit — chunk seams and span seams commute with
    the same sync-point argument. [entry] only affects chunk 0, whose
    slot then stitches; every other chunk enters at its own sync point.
    Each call builds its own replayers (one per chunk, at most
    [Pool.jobs]), so consecutive spans never share one.
    @raise Invalid_argument when [off..off+len) exceeds either array. *)

val replay_arrays :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  ?insns:int array ->
  int array ->
  len:int ->
  Profile.t
(** [replay_arrays pool packed ~insns starts ~len] — shard
    [starts.(0..len-1)] (entry state NTE) across the pool and merge.
    [insns] is the parallel per-block instruction-count array (coverage
    counts 0 per block when absent). Workers credit replayed blocks to
    {!Pool.add_units}. [make] builds each worker's private replayer from
    the shared image — it must dup (never share mutable counters), and
    its engine must be observationally identical to the packed one.
    @raise Invalid_argument when [len] exceeds either array. *)

val load_pc_trace : string -> int array * int array * int
(** {!Tea_core.Pc_trace.blocks_of_string} of a file. Decoding is
    inherently sequential — the format is delta-coded — so the parallel
    path decodes once up front instead of streaming. *)

val replay_pc_trace :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  Profile.t * int
(** [load_pc_trace] then [replay_arrays]; returns the merged profile and
    the block count. Bit-identical to
    {!Tea_core.Pc_trace.replay_packed} over the same image. *)

(** {2 Multi-asid event streams}

    {!replay_arrays} assumes one uncut single-asid stream — its sync-point
    stitching carries a single automaton state across chunk seams, so a
    seam landing on an asid switch would stitch against the wrong
    automaton. The multi-asid path therefore demuxes {e first}: the v3
    event stream is split into per-asid runs, cut at every
    invalidation/interrupt (each run re-enters at NTE, matching the
    demuxed {!Tea_core.Multi_replayer} cut, which does no accounting),
    and each run is sharded independently through one set of replayers
    per asid (see {e replayer reuse} above). Seams never straddle an asid
    or a cut by construction; the replayers' totals sum to exactly the
    per-asid sequential snapshot, at any job count. *)

type run = Tea_core.Pc_trace.run = {
  starts : int array;
  insns : int array;
  len : int;
}

val load_events : string -> (int * run list) list
(** {!Tea_core.Pc_trace.runs_of_string} of a file. Its absent no-block
    asids match the lazy-entry rule of {!Tea_core.Multi_replayer}. *)

val replay_runs :
  Pool.t ->
  Tea_core.Packed.t ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  run list ->
  Profile.t
(** [replay_runs pool packed runs] — shard every run from NTE over
    [packed] and return their summed profile, as {!replay_arrays} per run
    then {!Profile.merge_all} would, but through one set of replayers:
    [make] runs at most [Pool.jobs pool] times in all, however many runs
    there are. The sequential counterpart is one
    {!Tea_core.Multi_replayer} entry, which likewise keeps its replayer
    across cuts. *)

val replay_events :
  Pool.t ->
  (int -> Tea_core.Packed.t) ->
  ?make:(Tea_core.Packed.t -> Tea_core.Replayer.t) ->
  string ->
  (int * Profile.t) list
(** [replay_events pool packed_for path] — {!load_events}, then
    {!replay_runs} over [packed_for asid] for each asid (the replayers
    dup the image via [make]; a shared image per asid is fine). [make]
    runs at most [Pool.jobs pool] times per asid. The result equals
    {!Tea_core.Multi_replayer.snapshots} of a sequential demuxed replay
    over the same images, at any [--jobs] — the interleaved-replay hard
    gate. *)
