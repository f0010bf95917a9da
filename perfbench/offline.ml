(* offline-branchy: whole-file replay of the 181.mcf PCTR2 capture at
   jobs 1, on the tuned image through the compiled engine — the path
   [tea_tool replay --pc-trace -e compiled --pgo --fuse] takes:
   read -> decode -> dispatch -> snapshot. No sockets, queue, asid
   switches or pool, so its cost is decode plus dispatch. *)

module Core = Tea_core
module P = Tea_parallel

let base = "181.mcf"

type t = {
  path : string;
  stream : Gen.stream;
  bytes : int;
  img : Setup.image;
  expected : P.Profile.t;
}

(* The expected profile: a sequential packed-engine replay of the same
   tuned image. *)
let expected_profile (img : Setup.image) (s : Gen.stream) =
  let rep = Setup.packed_replayer img.Setup.tuned in
  Core.Replayer.feed_run rep ~insns:s.Gen.insns s.Gen.starts ~len:s.Gen.len;
  P.Profile.of_replayer rep

(* Reference-engine TBB counts over the same stream. *)
let reference_counts (img : Setup.image) (s : Gen.stream) =
  let rep = Setup.reference_replayer img.Setup.auto in
  Core.Replayer.feed_run rep ~insns:s.Gen.insns s.Gen.starts ~len:s.Gen.len;
  Core.Replayer.tbb_counts rep

(* One operation. The compiled image is reused across operations: its
   counters are reset and a fresh replayer owns the per-state counts. *)
let op ?tr (c : t) =
  let sp name f = match tr with None -> f () | Some t -> Spans.span t name f in
  let starts, insns, len =
    sp "pc_trace.decode" (fun () -> P.Shard.load_pc_trace c.path)
  in
  let rep =
    sp "replayer.dispatch" (fun () ->
        Core.Packed.reset_counters (Core.Compiled.base c.img.Setup.compiled);
        let rep = Core.Replayer.create_compiled c.img.Setup.compiled in
        Core.Replayer.feed_run rep ~insns starts ~len;
        rep)
  in
  (sp "profile.snapshot" (fun () -> P.Profile.of_replayer rep), len)

(* Back-to-back operations for [seconds] after one untimed warm-up; every
   output is checked. Returns the start of the timed phase and, in
   completion order, (latency s, completion time, blocks) per operation. *)
let timed_ops ~seconds ~(tally : Tally.t) ~what op check =
  let run () =
    let t0 = Report.now () in
    let r = Tally.guard tally ~what op in
    (t0, Report.now (), r)
  in
  (match run () with
  | _, _, Some (out, _) -> Tally.check tally ~what:(what ^ " (warm-up)") (check out)
  | _, _, None -> ());
  let start = Report.now () in
  let deadline = start +. seconds in
  let ops = ref [] in
  while Report.now () < deadline do
    match run () with
    | t0, t1, Some (out, n) ->
        ops := (t1 -. t0, t1, n) :: !ops;
        Tally.check tally ~what (check out)
    | _, _, None -> ()
  done;
  (start, List.rev !ops)

(* Summed operation time per block, ns: the untraced base the traced run
   compares against. *)
let busy_ns_per_block ops =
  let t, b = List.fold_left (fun (t, b) (l, _, n) -> (t +. l, b + n)) (0.0, 0) ops in
  t *. 1e9 /. float_of_int (max 1 b)

let prepare ?(base = base) ~dir ~reps ?tr () =
  let path = Gen.capture ~dir base in
  let stream = Gen.load path in
  let setup = Setup.run ?tr ~reps [ (base, stream, stream.Gen.len) ] in
  let img = List.hd setup.Setup.images in
  let bytes = (Unix.stat path).Unix.st_size in
  let expected = expected_profile img stream in
  ({ path; stream; bytes; img; expected }, setup)

let sim_cycles_per_block c =
  float_of_int c.expected.P.Profile.cycles /. float_of_int c.stream.Gen.len

let check_reference ~tally c =
  Tally.check tally ~what:"reference-engine TBB counts"
    (reference_counts c.img c.stream = c.expected.P.Profile.counts)

let end_to_end ~seconds ~tally c =
  timed_ops ~seconds ~tally ~what:"offline replay"
    (fun () -> op c)
    (P.Profile.equal c.expected)

(* The traced run: untraced and traced operations alternate (so both see
   the same machine), the traced ones with one span per layer call; then
   allocation measured around single calls, and a tier-attribution pass. *)
let layers ~seconds ~tally c =
  let what = "offline replay" in
  let check = P.Profile.equal c.expected in
  let tr = Spans.create () in
  let n = ref 0 and blocks = ref 0 and base = ref [] in
  let minor0 = Report.minor_words () and major0 = Report.major_collections () in
  let deadline = Report.now () +. seconds in
  while Report.now () < deadline do
    let t0 = Report.now () in
    (match Tally.guard tally ~what (fun () -> op c) with
    | Some (p, len) ->
        base := (Report.now () -. t0, 0.0, len) :: !base;
        Tally.check tally ~what (check p)
    | None -> ());
    (* [Pc_trace.fold] reads the file itself; this span prices that read *)
    ignore (Spans.span tr "pc_trace.read" (fun () -> Gen.read c.path));
    match
      Tally.guard tally ~what (fun () ->
          Spans.span tr "op" (fun () -> op ~tr c))
    with
    | Some (p, len) ->
        incr n;
        blocks := !blocks + len;
        Tally.check tally ~what (check p)
    | None -> ()
  done;
  let minor = Report.minor_words () -. minor0 in
  let major = Report.major_collections () - major0 in
  let len = c.stream.Gen.len in
  let decode_alloc =
    Report.alloc_per_block len (fun () -> P.Shard.load_pc_trace c.path)
  in
  let dispatch_alloc =
    let s = c.stream in
    Core.Packed.reset_counters (Core.Compiled.base c.img.Setup.compiled);
    let rep = Core.Replayer.create_compiled c.img.Setup.compiled in
    Report.alloc_per_block len (fun () ->
        Core.Replayer.feed_run rep ~insns:s.Gen.insns s.Gen.starts ~len)
  in
  let sum = Spans.by_name tr in
  let fb = float_of_int !blocks and fn = float_of_int (max 1 !n) in
  let all_ops = float_of_int (!n + List.length !base) in
  let all_blocks =
    List.fold_left (fun acc (_, _, b) -> acc +. float_of_int b) fb !base
  in
  let read = Spans.total sum "pc_trace.read" /. fn in
  let decode = Spans.total sum "pc_trace.decode" in
  let dispatch = Spans.total sum "replayer.dispatch" in
  let snapshot = Spans.total sum "profile.snapshot" in
  let traced_ns = Spans.total sum "op" *. 1e9 /. fb in
  let untraced_ns = busy_ns_per_block !base in
  Core.Tierstat.install ();
  ignore (Tally.guard tally ~what (fun () -> op c));
  let tiers = Core.Tierstat.uninstall () in
  ( [ tr ],
    [
      ("pc_trace.read_ms", read *. 1e3);
      ("pc_trace.decode_ns_per_block", (decode -. (read *. fn)) *. 1e9 /. fb);
      ("pc_trace.decode_alloc_words_per_block", decode_alloc);
      ("pc_trace.bytes_per_block", float_of_int c.bytes /. float_of_int len);
      ("replayer.dispatch_ns_per_block", dispatch *. 1e9 /. fb);
      ("replayer.dispatch_alloc_words_per_block", dispatch_alloc);
      ("profile.snapshot_us", snapshot *. 1e6 /. fn);
      (* collections over both the untraced and the traced operations *)
      ("gc.minor_words_per_block", minor /. all_blocks);
      ("gc.major_collections_per_op", float_of_int major /. all_ops);
      ("gc.top_heap_mb", Report.top_heap_mb ());
      ( "ledger.unattributed_frac",
        Report.unattributed ~layers_s:(decode +. dispatch +. snapshot) ~blocks:fb
          ~untraced_ns );
      ("trace.overhead_pct", Report.overhead_pct ~traced_ns ~untraced_ns);
    ]
    @ Report.tier_fracs tiers )
