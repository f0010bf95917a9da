module Automaton = Tea_core.Automaton
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace

(* What a worker learned about its chunk [lo, hi). *)
type chunk =
  | Head (* chunk 0: replayed whole by slot 0, which then stitches *)
  | Suffix of { sync : int; exit_state : Automaton.state }
      (* replayed (sync, hi) from the entry-independent state at [sync];
         the prefix [lo, sync] is the driver's *)
  | Unsynced (* no sync point in the chunk; the driver replays all of it *)

(* The union of every state's in-trace labels. A PC outside this set
   resolves identically from any state (head-or-NTE), which is what makes
   it a legal chunk seam. Shared read-only across the workers. *)
let edge_labels packed =
  let raw = Packed.to_raw packed in
  let h = Hashtbl.create (2 * Array.length raw.Packed.labels + 1) in
  Array.iter (fun l -> Hashtbl.replace h l ()) raw.Packed.labels;
  h

let resolve packed pc =
  match Packed.head_of packed pc with Some s -> s | None -> Automaton.nte

let default_make p = Replayer.create_packed (Packed.dup p)

(* One image's replayers, reused across every span replayed over it:
   slot i replays chunk i of each span and is built by [make] on first
   use; slot 0 is also the stitching driver. Each span overwrites a
   slot's state with [set_state] (no accounting) and replayer totals are
   additive, so one snapshot per slot at the end sums every span. *)
type crew = {
  pool : Pool.t;
  packed : Packed.t;
  make : Packed.t -> Replayer.t;
  labels : (int, unit) Hashtbl.t Lazy.t;
  slots : Replayer.t option array;
}

let crew pool packed make =
  {
    pool;
    packed;
    make;
    labels = lazy (edge_labels packed);
    slots = Array.make (Pool.jobs pool) None;
  }

let slot c i =
  match c.slots.(i) with
  | Some r -> r
  | None ->
      let r = c.make c.packed in
      c.slots.(i) <- Some r;
      r

let crew_profile c =
  Profile.merge_all
    (List.filter_map (Option.map Profile.of_replayer) (Array.to_list c.slots))

(* Replay [starts.(off..off+len-1)] from [entry] on [c]'s slots; returns
   the exit state. *)
let span c ?(entry = Automaton.nte) ?insns starts ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length starts then
    invalid_arg "Shard.replay_span: span out of range";
  (match insns with
  | Some a when Array.length a < off + len ->
      invalid_arg "Shard.replay_span: insns array shorter than span"
  | _ -> ());
  let pool = c.pool and packed = c.packed in
  let n_chunks = max 1 (min (Pool.jobs pool) len) in
  let bounds =
    Array.init n_chunks (fun i ->
        (off + (i * len / n_chunks), off + ((i + 1) * len / n_chunks)))
  in
  (* Lazy on purpose: one chunk has no seam, so no sync scan. Forced here
     on the caller, never racing inside the workers. *)
  if n_chunks > 1 then ignore (Lazy.force c.labels);
  let work i =
    let lo, hi = bounds.(i) in
    if i = 0 then begin
      let rep = slot c 0 in
      Replayer.set_state rep entry;
      Replayer.feed_run rep ~off:lo ?insns starts ~len:(hi - lo);
      Pool.add_units pool (hi - lo);
      Head
    end
    else begin
      let labels = Lazy.force c.labels in
      let sync = ref lo in
      while !sync < hi && Hashtbl.mem labels starts.(!sync) do
        incr sync
      done;
      if !sync >= hi then Unsynced
      else begin
        let k = !sync in
        let rep = slot c i in
        Replayer.set_state rep (resolve packed starts.(k));
        let n = hi - k - 1 in
        if n > 0 then Replayer.feed_run rep ~off:(k + 1) ?insns starts ~len:n;
        Pool.add_units pool n;
        Suffix { sync = k; exit_state = Replayer.state rep }
      end
    end
  in
  let chunks = Pool.map pool ~f:work n_chunks in
  (* Sequential stitch: carry the true state across chunks, replaying
     only what no worker could — each chunk's uncertain prefix. Slot 0
     already holds chunk 0's exit state. *)
  let driver = slot c 0 in
  let driver_steps = ref 0 in
  Array.iteri
    (fun i chunk ->
      let lo, hi = bounds.(i) in
      match chunk with
      | Head -> ()
      | Suffix { sync; exit_state } ->
          Replayer.feed_run driver ~off:lo ?insns starts ~len:(sync - lo + 1);
          driver_steps := !driver_steps + (sync - lo + 1);
          (* the step at [sync] is entry-independent: the true walk must
             land exactly where the worker started *)
          assert (Replayer.state driver = resolve packed starts.(sync));
          Replayer.set_state driver exit_state
      | Unsynced ->
          if hi > lo then begin
            Replayer.feed_run driver ~off:lo ?insns starts ~len:(hi - lo);
            driver_steps := !driver_steps + (hi - lo)
          end)
    chunks;
  Pool.add_units pool !driver_steps;
  Replayer.state driver

let replay_span pool packed ?(make = default_make) ?entry ?insns starts ~off
    ~len =
  let c = crew pool packed make in
  let exit_state = span c ?entry ?insns starts ~off ~len in
  (crew_profile c, exit_state)

let replay_arrays pool packed ?make ?insns starts ~len =
  if len < 0 || len > Array.length starts then
    invalid_arg "Shard.replay_arrays: len out of range";
  (match insns with
  | Some a when Array.length a < len ->
      invalid_arg "Shard.replay_arrays: insns array shorter than len"
  | _ -> ());
  fst (replay_span pool packed ?make ?insns starts ~off:0 ~len)

let load_pc_trace path = Pc_trace.blocks_of_string (Pc_trace.read_all path)

let replay_pc_trace pool packed ?make path =
  let starts, insns, len = load_pc_trace path in
  (replay_arrays pool packed ?make ~insns starts ~len, len)

(* ---- multi-asid event streams ----

   [replay_arrays] assumes one uncut single-asid stream: its sync-point
   chunking carries ONE automaton state across seams, so a chunk seam
   falling on an asid switch would stitch with the wrong automaton, and a
   mid-chunk invalidation would not exist in its vocabulary at all. The
   fix is demux-first: split the event stream into per-asid runs, cut at
   every invalidation/interrupt (each run re-enters at NTE — exactly what
   [Replayer.set_state nte] does in the demuxed replayer, with no
   accounting), and shard each run independently through the asid's one
   crew. Seams then never straddle an asid or a cut by construction, and
   the crew's slots sum to exactly the per-asid sequential snapshot. *)

type run = Pc_trace.run = { starts : int array; insns : int array; len : int }

let load_events path = Pc_trace.runs_of_string (Pc_trace.read_all path)

let replay_runs pool packed ?(make = default_make) runs =
  let c = crew pool packed make in
  List.iter
    (fun r -> ignore (span c ~insns:r.insns r.starts ~off:0 ~len:r.len))
    runs;
  crew_profile c

let replay_events pool packed_for ?make path =
  List.map
    (fun (asid, runs) -> (asid, replay_runs pool (packed_for asid) ?make runs))
    (load_events path)
