(** Compact program-counter trace files.

    The fully decoupled replay story: an execution's logical-block stream
    (block start address + dynamic instruction count) is written to a
    compact binary file — zig-zag delta encoding plus LEB128 varints, a few
    bits per block in loops — and the TEA can later be replayed against
    that file with no program, no interpreter and no frontend present.
    This is what shipping a trace from a production system to an analysis
    box looks like.

    Three formats, sniffed by magic on read:

    - {b v1} (magic ["TEAPC1\n"]): per block a varint-encoded zig-zag
      delta from the previous start address followed by a varint
      instruction count.
    - {b v2} (magic ["PCTR2\n"], the default written): dictionary
      pair-coding over the v1 records. Each record is one varint token:
      [0] escapes to a literal (zig-zag delta + insns varints, which
      registers that pair under the next free token, capped at 2^20
      entries), [k >= 1] repeats dictionary pair [k]. Replay streams
      revisit the same few (delta, insns) pairs in loops, so
      steady-state records compress to ~1 byte — typically 3–4x smaller
      files than v1.
    - {b v3} (magic ["PCTR3\n"]): the v2 coding extended to multi-process
      interleaved streams. Low tokens are reserved for events — [1]
      switches the current address-space id ([asid], varint operand),
      [2] invalidates an asid's traces (self-modifying code), [3] marks a
      mid-trace interrupt — and dictionary ids start at [4]. Each asid
      runs its own delta chain (the previous start address is parked on
      switch-out and restored on switch-in), so interleaving does not
      destroy the delta/dictionary locality the coder feeds on. A stream
      starts in asid 0. *)

type format = V1 | V2 | V3

type event =
  | Block of { start : int; insns : int }
      (** One executed logical block. *)
  | Switch of { asid : int }
      (** Context switch: subsequent blocks belong to [asid]. *)
  | Invalidate of { asid : int }
      (** [asid]'s translated code was invalidated (self-modifying code);
          its automaton states must be evicted and re-learned. *)
  | Interrupt
      (** Asynchronous signal cut the current asid's trace body; replay
          resumes at NTE. *)

type writer

val open_writer : ?format:format -> string -> writer
(** Default [V2]. [V1] keeps writing the PR 1 byte format for
    interchange with older readers; [V3] enables the event records. *)

val write : writer -> start:int -> insns:int -> unit
(** Append one block record (any format). Under [V3] it is stamped with
    the writer's current asid. *)

val switch_asid : writer -> int -> unit
(** [V3] only. Append a context-switch record; subsequent [write]s belong
    to the given asid (>= 0). @raise Invalid_argument otherwise. *)

val invalidate : writer -> int -> unit
(** [V3] only. Append a trace-invalidation record for an asid (>= 0). *)

val interrupt : writer -> unit
(** [V3] only. Append a mid-trace interrupt record for the current asid. *)

val write_event : writer -> event -> unit
(** Dispatch to [write] / [switch_asid] / [invalidate] / [interrupt]. *)

val close_writer : writer -> unit
(** @raise Sys_error on I/O failure. Idempotent. *)

exception Corrupt of string

val read_all : string -> string
(** Slurp a trace file's raw bytes. ["-"] reads standard input; pipes,
    FIFOs, sockets and other non-seekable inputs are read in chunks until
    EOF (a seekable file stays the single-read fast path). All the
    path-taking readers below go through this, so every one of them
    accepts ["-"] and non-seekable paths like [/dev/stdin] or a FIFO.
    @raise Sys_error on I/O failure. *)

(** {2 The decoder core}

    Every reader below wraps one resumable decoder: a state record (the
    dictionary, the per-asid parked delta chains, the current asid, the
    pending tail of a record split by a feed) and one record loop that
    writes block starts and instruction counts into caller-owned
    [int array]s and logs events beside them, allocating nothing per
    record. Varints are LEB128 over an unsigned 63-bit value, at most 9
    bytes; deltas are zig-zag coded over the whole [int] range, so every
    [int] start roundtrips. A longer varint, or an instruction count or
    asid that decodes negative (never written by {!write}), is
    [Corrupt]. *)

type batch = {
  starts : int array;
  insns : int array;
  mutable len : int;  (** blocks in [starts]/[insns] *)
  events : int array;
      (** [nevents] stride-3 records [(position, kind, operand)]:
          [position] blocks of the batch precede the event; [kind] is
          {!ev_switch} (operand: the asid switched to), {!ev_invalidate}
          (the target asid) or {!ev_interrupt} (the asid it cuts) *)
  mutable nevents : int;
}
(** Caller-owned decoder output: the decoder appends, the caller clears. *)

val ev_switch : int
val ev_invalidate : int
val ev_interrupt : int

val event_of : int -> int -> event
(** [event_of kind operand]: the event a batch record stands for. *)

val batch : blocks:int -> events:int -> batch
(** @raise Invalid_argument unless both capacities are [>= 1]. *)

type decoder

val decoder : unit -> decoder
(** The format is sniffed from the first bytes fed. *)

val decoder_fill : decoder -> batch -> ?off:int -> ?len:int -> string -> int
(** Decode [s.[off..off+len)] (default: all of [s]) into the batch and
    return the bytes consumed: all of them unless the batch filled — then
    drain it and feed the rest. A record split by the end of the input
    stays pending in the decoder (transactionally: state commits only on
    complete records). @raise Corrupt on bad framing; the decoder is then
    poisoned. @raise Invalid_argument on a bad substring or a finished
    decoder. *)

val feed_segments :
  decoder ->
  batch ->
  ?off:int ->
  ?len:int ->
  string ->
  run:(batch -> asid:int -> off:int -> len:int -> unit) ->
  event:(asid:int -> int -> int -> unit) ->
  unit
(** Feed all of [s.[off..off+len)] through the batch [b] (cleared first
    and reused), calling, in stream order, [run b] for each block run
    [starts.(off..off+len-1)] between events and [event ~asid kind
    operand] for each event, stamped as in {!fold_events}. *)

val iter_segments :
  ?blocks:int ->
  string ->
  run:(batch -> asid:int -> off:int -> len:int -> unit) ->
  event:(asid:int -> int -> int -> unit) ->
  unit
(** {!feed_segments} of a whole stream through a fresh decoder and a
    batch of [blocks] (default 4096) blocks, then {!decoder_finish}. *)

val decoder_finish : decoder -> unit
(** Declare end-of-stream. Idempotent. @raise Corrupt if the stream
    ended mid-record ("truncated varint") or before a complete magic
    ("truncated header", the empty stream included). *)

val decoder_format : decoder -> format option
(** [None] until the magic is complete. *)

val decoder_pending : decoder -> int
(** Bytes fed but not yet decoded ([0] exactly at a record boundary). *)

val decoder_feed :
  decoder -> ?off:int -> ?len:int -> string -> (asid:int -> event -> unit) -> unit
(** The event-at-a-time view of {!decoder_fill}, for socket chunks that
    may split a varint, a literal or the magic: any chunking of a file
    emits exactly its {!fold_events} sequence (property-tested). *)

(** {2 Whole streams} *)

val blocks_of_string : string -> int array * int array * int
(** A single-stream trace's [(starts, insns, len)] in one feed into
    arrays presized from the byte count (every v2/v3 record is at least
    1 byte, every v1 record 2), so only [0..len-1] is valid. Same
    acceptance as {!fold}. @raise Corrupt on bad framing. *)

type run = { starts : int array; insns : int array; len : int }
(** One uncut single-asid block run; only [0..len-1] is valid. *)

val runs_of_string : string -> (int * run list) list
(** Demultiplex any trace into per-asid runs, sorted by asid, runs in
    stream order, cut at every invalidation (of its target) and interrupt
    (of the current asid). Asids with no blocks are absent; a cut of an
    asid with no blocks since its last cut is a no-op.
    @raise Corrupt on bad framing. *)

val fold : string -> 'a -> ('a -> start:int -> insns:int -> 'a) -> 'a
(** Stream the file through a folder as a {e single} PC stream: v1, v2,
    or v3 without events — an interleaved or cut stream must not replay
    against one automaton; use {!fold_events}.
    @raise Corrupt on bad framing, any event record included. *)

val fold_events : string -> 'a -> ('a -> asid:int -> event -> 'a) -> 'a
(** Stream the file through a folder as an event stream. All three
    formats accepted: v1/v2 block records arrive as [Block] with asid 0.
    [~asid] is the address space the event lands on — for [Switch] that
    is the asid being switched {e to}. @raise Corrupt on bad framing. *)

val length : string -> int
(** Number of block records (events not counted). *)

val iter_chunks :
  ?chunk:int ->
  string ->
  (starts:int array -> insns:int array -> len:int -> unit) ->
  unit
(** Decode the file in blocks of up to [chunk] (default 4096) records into
    reused parallel arrays, the batched front half of
    {!Replayer.feed_run}. Same acceptance as {!fold}.
    @raise Corrupt on bad framing. *)

val replay : Transition.t -> string -> Replayer.t
(** Replay a TEA against a trace file: the offline half of the
    cross-system workflow (reference engine, record-at-a-time). *)

val replay_packed : Packed.t -> string -> Replayer.t
(** Same replay through the packed fast path: chunked decode feeding
    {!Replayer.feed_run}. Identical coverage, profiles and state sequence
    to {!replay} over the same automaton. *)
