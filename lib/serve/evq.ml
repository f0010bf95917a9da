(* Unboxed per-session event queue.

   The drain cycle is the daemon's hot loop: every decoded trace event
   crosses it exactly once, on a pool worker. A [(int * Pc_trace.event)
   Queue.t] makes that crossing expensive out of proportion to the
   replay work itself — each event costs a queue cell, a tuple and a
   constructor block, all allocated on the driver thread and chased as
   scattered minor/major-heap pointers by whichever worker domain drains
   the session. At packed-engine speeds (~2-5 ns/block) the pointer
   chasing dominates the drain window.

   Instead, events are flattened at enqueue time into stride-4 int
   records [tag; asid; a; b] in one growable power-of-two ring: the
   driver writes fields, the worker streams them back out of a dense
   array — no allocation after the ring warms up, no pointer chasing,
   and the common Block case never rebuilds an event value (see
   {!Tea_core.Multi_replayer.feeder_block}). *)

type t = {
  mutable buf : int array;  (* cap * 4 ints, stride-4 records *)
  mutable cap : int;  (* records; always a power of two *)
  mutable head : int;  (* record index of the next pop; < cap *)
  mutable len : int;  (* live records *)
}

(* the non-block tags are the decoder's event kinds *)
let tag_block = 0
let tag_switch = Tea_core.Pc_trace.ev_switch
let tag_invalidate = Tea_core.Pc_trace.ev_invalidate
let tag_interrupt = Tea_core.Pc_trace.ev_interrupt

let create () = { buf = Array.make (256 * 4) 0; cap = 256; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

(* doubling copy, unwrapping the ring so [head] restarts at 0 *)
let grow t =
  let cap' = t.cap * 2 in
  let buf' = Array.make (cap' * 4) 0 in
  for i = 0 to t.len - 1 do
    Array.blit t.buf ((t.head + i) land (t.cap - 1) * 4) buf' (i * 4) 4
  done;
  t.buf <- buf';
  t.cap <- cap';
  t.head <- 0

let push_raw t ~tag ~asid a b =
  if t.len = t.cap then grow t;
  let i = (t.head + t.len) land (t.cap - 1) * 4 in
  t.buf.(i) <- tag;
  t.buf.(i + 1) <- asid;
  t.buf.(i + 2) <- a;
  t.buf.(i + 3) <- b;
  t.len <- t.len + 1

let push t ~asid (ev : Tea_core.Pc_trace.event) =
  match ev with
  | Block { start; insns } -> push_raw t ~tag:tag_block ~asid start insns
  | Switch { asid = a } -> push_raw t ~tag:tag_switch ~asid a 0
  | Invalidate { asid = a } -> push_raw t ~tag:tag_invalidate ~asid a 0
  | Interrupt -> push_raw t ~tag:tag_interrupt ~asid 0 0

let tag t = t.buf.(t.head * 4)
let asid t = t.buf.((t.head * 4) + 1)
let f1 t = t.buf.((t.head * 4) + 2)
let f2 t = t.buf.((t.head * 4) + 3)

let drop t =
  t.head <- (t.head + 1) land (t.cap - 1);
  t.len <- t.len - 1
