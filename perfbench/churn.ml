(* offline-churn: a seeded PCTR3 scenario over eight SPEC-like bases, each
   under its own asid with its own tuned image — a random-schedule
   interleave in quanta of tens of blocks, with periodic interrupts and
   self-modifying-code invalidations — replayed through the demuxed
   sharded path (Shard.replay_events with a compiled-engine factory) at
   jobs = min(nproc - 1, 2), at least 1. The same decode and dispatch layers as
   offline-branchy used the opposite way: short runs, many images, and a
   compile of each asid's image on the replay path. *)

module Core = Tea_core
module P = Tea_parallel

type t = {
  path : string;
  bytes : int;
  blocks : int;
  runs : int;  (* single-asid runs after demux and cuts *)
  images : Setup.image array;  (* by asid *)
  expected : (int * P.Profile.t) list;
}

(* Worker domains: up to 2, leaving a core for the calling domain, which
   demuxes and stitches (so domains never outnumber cores). With three
   domains on a 2-core machine every replay was 1-3.5x slower from one run
   to the next, which no bound could hold. *)
let jobs () = max 1 (min (Domain.recommended_domain_count () - 1) 2)

let profiles_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (x, p) (y, q) -> x = y && P.Profile.equal p q) a b

let prepare ~dir ~reps ~seed ?tr () =
  let captured =
    List.map (fun b -> (b, Gen.load (Gen.capture ~dir b))) Gen.churn_bases
  in
  let setup =
    Setup.run ?tr ~reps
      (List.map (fun (b, s) -> (b, s, min Gen.churn_window s.Gen.len)) captured)
  in
  let images = Array.of_list setup.Setup.images in
  let path = Filename.concat dir "churn.pctr" in
  Gen.write_churn ~seed ~path (Gen.churn_streams captured);
  let multi =
    Core.Multi_replayer.replay_events
      (fun a -> Setup.packed_replayer images.(a).Setup.tuned)
      path
  in
  let expected = Core.Multi_replayer.snapshots multi in
  let runs = P.Shard.load_events path in
  let blocks =
    List.fold_left (fun acc (_, p) -> acc + p.P.Profile.steps) 0 expected
  in
  ( {
      path;
      bytes = (Unix.stat path).Unix.st_size;
      blocks;
      runs = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 runs;
      images;
      expected;
    },
    setup )

(* Reference-engine TBB counts per asid over the same scenario. *)
let check_reference ~tally c =
  let m =
    Core.Multi_replayer.replay_events
      (fun a -> Setup.reference_replayer c.images.(a).Setup.auto)
      c.path
  in
  Tally.check tally ~what:"reference-engine TBB counts"
    (List.for_all
       (fun (a, p) ->
         match Core.Multi_replayer.replayer m a with
         | Some r -> Core.Replayer.tbb_counts r = p.P.Profile.counts
         | None -> false)
       c.expected)

let sim_cycles_per_block c =
  float_of_int
    (List.fold_left (fun acc (_, p) -> acc + p.P.Profile.cycles) 0 c.expected)
  /. float_of_int c.blocks

let packed_for c a = c.images.(a).Setup.tuned

(* One operation: the whole scenario file through the sharded demux. *)
let op pool c =
  (P.Shard.replay_events pool (packed_for c) ~make:Setup.compiled_replayer c.path,
   c.blocks)

let end_to_end ~seconds ~tally pool c =
  Offline.timed_ops ~seconds ~tally ~what:"churn replay"
    (fun () -> op pool c)
    (profiles_equal c.expected)

(* [Shard.replay_events] recomposed from its public parts so each gets a
   span: demux ([load_events]), then per-asid sharded replay whose
   factory compiles the asid's image (a span on whichever domain runs
   it). *)
let traced_op tr pool c =
  let runs = Spans.span tr "shard.load_events" (fun () -> P.Shard.load_events c.path) in
  Spans.span tr "shard.replay" (fun () ->
      let parent = Spans.current tr in
      let make p =
        Spans.span tr ~parent "compile" (fun () -> Setup.compiled_replayer p)
      in
      List.map
        (fun (asid, rs) ->
          ( asid,
            P.Profile.merge_all
              (List.map
                 (fun (r : P.Shard.run) ->
                   P.Shard.replay_arrays pool (packed_for c asid) ~make
                     ~insns:r.P.Shard.insns r.P.Shard.starts ~len:r.P.Shard.len)
                 rs) ))
        runs)

(* Dispatch alone: every run fed to a compiled replayer per asid, from
   pre-decoded arrays, in one domain. *)
let dispatch_pass runs c =
  let reps = Hashtbl.create 8 in
  let rep a =
    match Hashtbl.find_opt reps a with
    | Some r -> r
    | None ->
        let r = Setup.compiled_replayer (packed_for c a) in
        Hashtbl.add reps a r;
        r
  in
  List.iter
    (fun (a, rs) ->
      let r = rep a in
      List.iter
        (fun (run : P.Shard.run) ->
          Core.Replayer.set_state r Core.Automaton.nte;
          Core.Replayer.feed_run r ~insns:run.P.Shard.insns run.P.Shard.starts
            ~len:run.P.Shard.len)
        rs)
    runs

let pool_totals pool =
  List.fold_left
    (fun (t, b, w) d ->
      (t + d.P.Pool.d_tasks, b +. d.P.Pool.d_busy, w +. d.P.Pool.d_wait))
    (0, 0.0, 0.0) (P.Pool.domain_stats pool)

(* Untraced and traced operations alternate, as in [Offline.layers]. *)
let layers ~seconds ~tally pool c =
  let what = "churn replay" in
  let check = profiles_equal c.expected in
  let tr = Spans.create () in
  let n = ref 0 and base = ref [] in
  let minor0 = Report.minor_words () and major0 = Report.major_collections () in
  let tasks0, busy0, wait0 = pool_totals pool in
  let t_start = Report.now () in
  let deadline = t_start +. seconds in
  while Report.now () < deadline do
    let t0 = Report.now () in
    (match Tally.guard tally ~what (fun () -> op pool c) with
    | Some (got, len) ->
        base := (Report.now () -. t0, 0.0, len) :: !base;
        Tally.check tally ~what (check got)
    | None -> ());
    ignore (Spans.span tr "pc_trace.read" (fun () -> Gen.read c.path));
    match
      Tally.guard tally ~what (fun () ->
          Spans.span tr "op" (fun () -> traced_op tr pool c))
    with
    | Some got ->
        incr n;
        Tally.check tally ~what (check got)
    | None -> ()
  done;
  let minor = Report.minor_words () -. minor0 in
  let major = Report.major_collections () - major0 in
  let tasks1, busy1, wait1 = pool_totals pool in
  let t_end = Report.now () in
  let runs = P.Shard.load_events c.path in
  let t0 = Report.now () in
  dispatch_pass runs c;
  let dispatch_s = Report.now () -. t0 in
  let dispatch_alloc =
    Report.alloc_per_block c.blocks (fun () -> dispatch_pass runs c)
  in
  let sum = Spans.by_name tr in
  let fn = float_of_int (max 1 !n) in
  let fb = float_of_int c.blocks *. fn in
  let all_ops = float_of_int (!n + List.length !base) in
  let all_blocks =
    List.fold_left (fun acc (_, _, b) -> acc +. float_of_int b) fb !base
  in
  let load = Spans.total sum "shard.load_events" in
  let replay = Spans.total sum "shard.replay" in
  let untraced_ns = Offline.busy_ns_per_block !base in
  let traced_ns = Spans.total sum "op" *. 1e9 /. fb in
  Core.Tierstat.install ();
  (match Tally.guard tally ~what (fun () -> op pool c) with
  | Some (got, _) -> Tally.check tally ~what (check got)
  | None -> ());
  let tiers = Core.Tierstat.uninstall () in
  let asids = float_of_int (Array.length c.images) in
  ( [ tr ],
    [
      ("compile.ms_per_asid", Spans.total sum "compile" *. 1e3 /. fn /. asids);
      ("pc_trace.read_ms", Spans.total sum "pc_trace.read" *. 1e3 /. fn);
      ("pc_trace.bytes_per_block", float_of_int c.bytes /. float_of_int c.blocks);
      ("replayer.dispatch_ns_per_block", dispatch_s *. 1e9 /. float_of_int c.blocks);
      ("replayer.dispatch_alloc_words_per_block", dispatch_alloc);
      ("shard.load_events_ns_per_block", load *. 1e9 /. fb);
      ("shard.mean_run_blocks", float_of_int c.blocks /. float_of_int c.runs);
      ("shard.replay_ns_per_block", replay *. 1e9 /. fb);
      (* pool and collector counters cover the untraced and the traced
         operations alike: per operation over both *)
      ( "pool.busy_frac",
        (busy1 -. busy0) /. (float_of_int (P.Pool.jobs pool) *. (t_end -. t_start)) );
      ("pool.wait_ms", (wait1 -. wait0) *. 1e3 /. all_ops);
      ("pool.tasks", float_of_int (tasks1 - tasks0) /. all_ops);
      ("gc.minor_words_per_block", minor /. all_blocks);
      ("gc.major_collections_per_op", float_of_int major /. all_ops);
      ("gc.top_heap_mb", Report.top_heap_mb ());
      ( "ledger.unattributed_frac",
        Report.unattributed ~layers_s:(load +. replay) ~blocks:fb ~untraced_ns );
      ("trace.overhead_pct", Report.overhead_pct ~traced_ns ~untraced_ns);
    ]
    @ Report.tier_fracs tiers )
