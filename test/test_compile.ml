(* Differential tests of the closure-threaded compiled engine
   (Tea_core.Compiled behind Tea_opt.Compile): compiled replay must be
   observationally identical — TBB mapping, coverage, enter/exit
   counters, stats and simulated cycles — to the interpreted packed
   engine over flat, repacked and fused images, fed in one batch or
   split at an arbitrary seam; TBB-identical to the reference engine;
   sharded replay through compiled workers must merge to the sequential
   profile at jobs 1/2/4; demuxed multi-asid replay through compiled
   engines must match the packed demux; and the dispatch-tier
   attribution of a compiled replay must stay a total partition of the
   blocks replayed. *)

module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Transition = Tea_core.Transition
module Tierstat = Tea_core.Tierstat
module Multi = Tea_core.Multi_replayer
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse
module Compile = Tea_opt.Compile
module Scenario = Tea_workloads.Scenario
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

open Support

(* Random workloads: {!Support.gen_workload}'s chain-skewed shape, so
   fused chains form, a fraction of states get two successors (the
   straight-line region's bimodal arm), and region runs, span misses,
   hash hits and NTE cuts all happen. *)
let gen_workload = gen_workload Chains

(* The three image variants every property sweeps: flat, profile-guided
   repacked, and repacked+fused (fusion over the stream's own profile
   would gate most chains out on these tiny workloads, so fuse
   unconditionally — the identity must hold either way). *)
let variants w addrs ~len =
  let auto = Builder.build w.w_traces in
  let flat = Packed.freeze auto in
  let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
  (auto, [ flat; tuned; Fuse.fuse tuned ])

let packed_snapshot ?cut img ~insns addrs ~len =
  let rep = Replayer.create_packed (Packed.dup img) in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  rep

let compiled_replayer ?cut img ~insns addrs ~len =
  let rep = Replayer.create_compiled (Compile.compile (Packed.dup img)) in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  rep

(* The tentpole property: compiling any image changes no replay
   observable — full snapshot equality (counts, coverage, enters/exits,
   stats, simulated cycles) plus the halt state, whether the stream is
   fed in one batch or split at an arbitrary seam (compiled dispatch is
   bounded by the threaded batch end, so a seam never moves a cycle). *)
let prop_compiled_is_identity =
  QCheck.Test.make ~name:"compiled replay == packed replay" ~count:150
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let base = packed_snapshot img ~insns addrs ~len in
          let once = compiled_replayer img ~insns addrs ~len in
          let split =
            compiled_replayer ~cut:(min cut len) img ~insns addrs ~len
          in
          Replayer.snapshot base = Replayer.snapshot once
          && Replayer.snapshot base = Replayer.snapshot split
          && Replayer.state base = Replayer.state once
          && Replayer.state base = Replayer.state split)
        imgs)

(* Against the paper-faithful engine: the TBB mapping (the answer to
   "which TBB is executing") and the boundary counters must agree with a
   reference replay of the same stream. *)
let prop_compiled_equals_reference =
  QCheck.Test.make ~name:"compiled TBB mapping == reference" ~count:100
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let auto, imgs = variants w addrs ~len in
      let reference =
        Replayer.create (Transition.create Transition.config_global_local auto)
      in
      Replayer.feed_run reference ~insns addrs ~len;
      List.for_all
        (fun img ->
          let comp = compiled_replayer img ~insns addrs ~len in
          Replayer.tbb_counts reference = Replayer.tbb_counts comp
          && Replayer.covered_insns reference = Replayer.covered_insns comp
          && Replayer.trace_enters reference = Replayer.trace_enters comp
          && Replayer.trace_exits reference = Replayer.trace_exits comp)
        imgs)

(* feed_addr single-stepping through the compiled engine must equal the
   batched path — the batch bound is the only loop-carried variable. *)
let prop_compiled_feed_addr =
  QCheck.Test.make ~name:"compiled feed_run == repeated feed_addr" ~count:100
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let one =
            Replayer.create_compiled (Compile.compile (Packed.dup img))
          in
          List.iter
            (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr)
            w.w_stream;
          let batched = compiled_replayer img ~insns addrs ~len in
          Replayer.snapshot one = Replayer.snapshot batched
          && Replayer.state one = Replayer.state batched)
        imgs)

(* ---------------- sharded replay through compiled workers ------------ *)

let compiled_make img = Replayer.create_compiled (Compile.compile (Packed.dup img))

let prop_sharded_compiled_replay =
  QCheck.Test.make ~name:"compiled shards: jobs 1/2/4 == sequential" ~count:15
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let pseq =
            Profile.of_replayer (packed_snapshot img ~insns addrs ~len)
          in
          List.for_all
            (fun jobs ->
              let pn =
                Pool.with_pool ~jobs (fun pool ->
                    Shard.replay_arrays pool img ~make:compiled_make ~insns
                      addrs ~len)
              in
              Profile.equal pseq pn)
            [ 1; 2; 4 ])
        imgs)

(* ---------------- multi-asid demux through compiled engines ---------- *)

let with_tmp f =
  let path = Filename.temp_file "tea_test_compile" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Two asids with independent automata, interleaved with invalidations
   (SMC) in one PCTR3 stream, then cut into runs of 1 and 2 blocks —
   fewer blocks than jobs 2/4 have chunk slots, so reused replayers meet
   runs that leave some slots idle: demuxed replay through per-asid
   compiled engines must produce exactly the per-asid packed snapshots,
   and demux-first sharding with compiled workers must merge to them at
   jobs 1/2/4 while building at most [jobs] replayers per asid. *)
let prop_multi_asid_compiled =
  QCheck.Test.make ~name:"multi-asid demux: compiled == packed" ~count:25
    (QCheck.pair gen_workload gen_workload)
    (fun (w0, w1) ->
      QCheck.assume
        (w0.w_stream <> [] && w1.w_stream <> []);
      let img_of w =
        let addrs, _, len = arrays_of_stream w.w_stream in
        let flat = Packed.freeze (Builder.build w.w_traces) in
        Repack.repack flat (Repack.collect flat addrs ~len)
      in
      let imgs = [| img_of w0; img_of w1 |] in
      let stream_of asid w =
        let starts, insns, len = arrays_of_stream w.w_stream in
        Scenario.stream ~asid ~name:"gen" ~starts ~insns ~len
      in
      let scn emit =
        Scenario.interleave ~quantum:3 [ stream_of 0 w0; stream_of 1 w1 ] emit;
        (* then a second, self-modifying pass of asid 0's stream *)
        emit (Tea_core.Pc_trace.Switch { asid = 0 });
        Scenario.smc ~period:17 (stream_of 0 w0) emit;
        (* then runs of 1 block (asid 1) and of 2 blocks (asid 0) *)
        emit (Tea_core.Pc_trace.Switch { asid = 1 });
        Scenario.smc ~period:1 (stream_of 1 w1) emit;
        emit (Tea_core.Pc_trace.Switch { asid = 0 });
        Scenario.interrupt ~every:2 (stream_of 0 w0) emit
      in
      with_tmp (fun path ->
          let _ = Scenario.write_file path scn in
          let packed_for asid = imgs.(asid) in
          let seq make =
            Multi.snapshots
              (Multi.replay_events
                 (fun asid -> make (packed_for asid))
                 path)
          in
          let want = seq (fun img -> Replayer.create_packed (Packed.dup img)) in
          let got = seq compiled_make in
          let sharded jobs =
            let made = Array.init 2 (fun _ -> Atomic.make 0) in
            let make img =
              Atomic.incr made.(if img == imgs.(0) then 0 else 1);
              compiled_make img
            in
            let profiles =
              Pool.with_pool ~jobs (fun pool ->
                  Shard.replay_events pool packed_for ~make path)
            in
            Array.for_all (fun n -> Atomic.get n <= jobs) made
            && List.for_all2
                 (fun (a1, s1) (a2, p2) -> a1 = a2 && Profile.equal s1 p2)
                 want profiles
          in
          want = got && List.for_all sharded [ 1; 2; 4 ]))

(* ---------------- dispatch-tier partition ---------------- *)

(* With the profiler installed, a compiled replay attributes every block
   to exactly one tier, and only to tiers compiled dispatch can reach:
   compiled, hash, miss. *)
let test_tier_partition () =
  let w =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) (QCheck.gen gen_workload)
  in
  let addrs, insns, len = arrays_of_stream w.w_stream in
  let _, imgs = variants w addrs ~len in
  List.iter
    (fun img ->
      Tierstat.install ();
      let snap =
        Fun.protect
          ~finally:(fun () ->
            if Tierstat.enabled () then ignore (Tierstat.uninstall ()))
          (fun () ->
            ignore (compiled_replayer img ~insns addrs ~len);
            Tierstat.uninstall ())
      in
      check Alcotest.int "tiers partition the batch" len (Tierstat.total snap);
      Array.iteri
        (fun tier n ->
          if
            tier <> Tierstat.t_compiled && tier <> Tierstat.t_hash
            && tier <> Tierstat.t_miss
          then
            check Alcotest.int
              (Printf.sprintf "tier %s unused" (Tierstat.tier_name tier))
              0 n)
        snap.Tierstat.ts_totals)
    imgs

(* ---------------- image statistics on a real capture ---------------- *)

let listscan_fixture ?(strategy = "mret") () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name strategy) in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_compile" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  (flat, starts, insns, len)

let test_image_stats () =
  let flat, starts, insns, len = listscan_fixture () in
  let tuned = Repack.repack flat (Repack.collect flat starts ~len) in
  let c = Compile.compile (Packed.dup tuned) in
  check Alcotest.bool "one closure per state at least" true
    (Compiled.n_closures c >= Packed.n_slots (Compiled.base c));
  (* listscan is bimodal-branchy: its loop states land in the
     straight-line region, not behind chain matchers *)
  check Alcotest.bool "region states found" true (Compiled.region_states c > 0);
  check Alcotest.int "no minihash fallback" 0 (Compiled.fallback_states c);
  let d = Compile.describe c in
  check Alcotest.bool "describe mentions the region" true
    (let needle = "straight-line region states" in
     let rec has i =
       i + String.length needle <= String.length d
       && (String.sub d i (String.length needle) = needle || has (i + 1))
     in
     has 0);
  (* engine tag *)
  let rep = Replayer.create_compiled c in
  check Alcotest.bool "compiled engine reported" true
    (match Replayer.engine rep with
    | Replayer.Compiled _ -> true
    | _ -> false);
  (* compiled_replay: end-to-end identity on the capture *)
  let _, baseline, tuned_rep = Compile.compiled_replay flat ~insns starts ~len in
  check Alcotest.bool "capture replay identical" true
    (Replayer.snapshot baseline = Replayer.snapshot tuned_rep)

(* ---------------- sentinel-valued stream PCs ---------------- *)

(* Every int is a legal PCTR address, including the values the engines
   use internally as "empty" markers: the inline cache's empty label
   (min_int), the trace-head hash's empty key (-1) and the straight-line
   region's filler label. A captured listscan stream with every 7th PC
   replaced by one of those values must replay identically on every
   engine and image: TBB mapping and boundary counters equal to the
   reference engine, and compiled replay's full profile (simulated
   cycles included) equal to packed replay's on the same image. *)
let test_sentinel_pcs () =
  let flat, starts, insns, len = listscan_fixture ~strategy:"ctt" () in
  let auto = Option.get (Packed.automaton flat) in
  let len = min len 400 in
  let sentinels = [| min_int; max_int; 0; -1 |] in
  let addrs =
    Array.init len (fun i ->
        if i mod 7 = 6 then sentinels.(i / 7 mod 4) else starts.(i))
  in
  let repacked = Repack.repack flat (Repack.collect flat addrs ~len) in
  let fused = Fuse.fuse repacked in
  let reference =
    Replayer.create (Transition.create Transition.config_global_local auto)
  in
  Replayer.feed_run reference ~insns addrs ~len;
  List.iter
    (fun (iname, img) ->
      let packed = packed_snapshot img ~insns addrs ~len in
      let compiled = compiled_replayer img ~insns addrs ~len in
      check Alcotest.bool (iname ^ ": compiled profile == packed") true
        (Profile.equal (Profile.of_replayer packed)
           (Profile.of_replayer compiled));
      List.iter
        (fun (ename, rep) ->
          let what k = Printf.sprintf "%s/%s: %s" ename iname k in
          check
            Alcotest.(list (pair int int))
            (what "tbb counts")
            (Replayer.tbb_counts reference)
            (Replayer.tbb_counts rep);
          check Alcotest.int (what "covered")
            (Replayer.covered_insns reference)
            (Replayer.covered_insns rep);
          check Alcotest.int (what "enters")
            (Replayer.trace_enters reference)
            (Replayer.trace_enters rep);
          check Alcotest.int (what "exits")
            (Replayer.trace_exits reference)
            (Replayer.trace_exits rep))
        [ ("packed", packed); ("compiled", compiled) ])
    [ ("flat", flat); ("repacked", repacked); ("fused", fused) ]

let () =
  Alcotest.run "tea_compile"
    [
      ( "differential",
        [
          qtest prop_compiled_is_identity;
          qtest prop_compiled_equals_reference;
          qtest prop_compiled_feed_addr;
          qtest prop_sharded_compiled_replay;
          qtest prop_multi_asid_compiled;
        ] );
      ( "attribution",
        [ Alcotest.test_case "tier partition" `Quick test_tier_partition ] );
      ( "image",
        [ Alcotest.test_case "stats and describe" `Quick test_image_stats;
          Alcotest.test_case "sentinel-valued stream PCs" `Quick
            test_sentinel_pcs ] );
    ]
