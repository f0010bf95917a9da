(* Tests of the superstate chain-fusion pass (Tea_opt.Fuse) and the fused
   replay loop behind it: fusion must be observationally the identity
   (TBB mapping, coverage, stats, simulated cycles) on any workload, over
   flat and repacked bases, sequentially and sharded; the TEAPK3
   serialization must round-trip and leave unfused images byte-identical;
   Packed.with_fusion must reject corrupt overlays; and the `info`
   description of the listscan image is frozen as a golden. *)

module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Serialize = Tea_core.Serialize
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse
module Metrics = Tea_telemetry.Metrics
module Probe = Tea_telemetry.Probe

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

open Support

(* Random workloads: {!Support.gen_workload}'s chain-skewed shape, so
   chains and cycles actually form and both the chain match and the
   mismatch fallback paths are exercised. *)
let gen_workload = gen_workload Chains

(* Batched replay through feed_run — the entry point that dispatches to
   the fused loop when the image carries an overlay — optionally split
   into two batches at [cut] to exercise the batch-boundary rule (a
   chain match never crosses a batch seam). *)
let batch_snapshot ?cut img ~insns addrs ~len =
  let rep = Replayer.create_packed (Packed.dup img) in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  Replayer.snapshot rep

(* The tentpole property: fusing any image — flat or repacked — changes
   no replay observable, whether the stream is fed in one batch or
   split. (Only the ic_hit/ic_miss split may differ on a repacked base:
   chain steps consult no inline cache; the split is excluded from
   snapshots by construction.) *)
let prop_fusion_is_identity =
  QCheck.Test.make ~name:"fusion is observationally the identity" ~count:150
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun base ->
          let fused = Fuse.fuse base in
          let plain = batch_snapshot base ~insns addrs ~len in
          let once = batch_snapshot fused ~insns addrs ~len in
          let split = batch_snapshot ~cut:(min cut len) fused ~insns addrs ~len in
          plain = once && plain = split)
        [ flat; tuned ])

(* Fused feed_run must also remain exactly len single steps — feed_addr
   goes through Packed.step, which ignores the overlay entirely. *)
let prop_fused_feed_run_equals_feed_addr =
  QCheck.Test.make ~name:"fused feed_run == repeated feed_addr" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let fused = Fuse.fuse flat in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let one = Replayer.create_packed (Packed.dup fused) in
      List.iter
        (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr)
        w.w_stream;
      let batched = Replayer.create_packed (Packed.dup fused) in
      Replayer.feed_run batched ~insns addrs ~len;
      Replayer.snapshot one = Replayer.snapshot batched
      && Replayer.state one = Replayer.state batched)

(* Round-tripping a fused image through TEAPK3 bytes preserves the
   overlay and replay behaviour; unfused images keep writing their
   PR 1 / PR 4 magics, byte for byte. *)
let prop_teapk3_roundtrip =
  QCheck.Test.make ~name:"TEAPK3 round-trip replays identically" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun (base, unfused_magic) ->
          let fused = Fuse.fuse base in
          let bin = Serialize.packed_to_binary fused in
          let loaded = Serialize.packed_of_binary bin in
          let magic_ok =
            if Packed.is_fused fused then String.sub bin 0 6 = "TEAPK3"
            else String.sub bin 0 6 = unfused_magic
          in
          magic_ok
          && String.sub (Serialize.packed_to_binary base) 0 6 = unfused_magic
          && Packed.is_fused loaded = Packed.is_fused fused
          && Packed.n_chains loaded = Packed.n_chains fused
          && Packed.n_cyclic_chains loaded = Packed.n_cyclic_chains fused
          && batch_snapshot loaded ~insns addrs ~len
             = batch_snapshot fused ~insns addrs ~len
          && Serialize.packed_to_binary loaded = bin)
        [ (flat, "TEAPK1"); (tuned, "TEAPK2") ])

(* ---------------- sharded replay over a fused image ----------------

   Same bar as PR 4: --jobs N merges to --jobs 1 counter for counter.
   Chain matching is bounded by each chunk's end, so sync-point
   stitching needs no new rule — only the chunk-local ic split (and the
   fused_steps probe, which depends on where seams fall) may differ. *)

let prop_sharded_fused_replay =
  QCheck.Test.make ~name:"fused replay: jobs 2/4 merge to jobs 1" ~count:15
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun base ->
          let fused = Fuse.fuse base in
          let p1, s1 = Support.sharded_snapshot fused ~insns addrs ~len 1 in
          (* the unfused sequential snapshot IS a profile *)
          let pseq = batch_snapshot base ~insns addrs ~len in
          List.for_all
            (fun jobs ->
              let pn, sn =
                Support.sharded_snapshot fused ~insns addrs ~len jobs
              in
              Tea_parallel.Profile.equal p1 pn && snapshots_equal_mod_fused s1 sn)
            [ 2; 4 ]
          && Tea_parallel.Profile.equal p1 pseq)
        [ flat; tuned ])

(* ---------------- chain decomposition units ---------------- *)

(* A linear trace a -> b -> c -> d: a, b, c are forced (one successor
   each), d is a dead end, so the decomposition yields one straight
   chain of 3 members. *)
let test_straight_chain () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000; block_at 0x4000 |]
      [| [ 1 ]; [ 2 ]; [ 3 ]; [] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  let fused = Fuse.fuse img in
  check Alcotest.bool "fused" true (Packed.is_fused fused);
  check Alcotest.int "one chain" 1 (Packed.n_chains fused);
  check Alcotest.int "three members" 3 (Packed.fused_edges fused);
  check Alcotest.int "no cycles" 0 (Packed.n_cyclic_chains fused);
  check Alcotest.(array int) "length histogram" [| 3 |]
    (Packed.chain_lengths fused);
  (* source image untouched *)
  check Alcotest.bool "source unfused" false (Packed.is_fused img)

(* A self-loop: one block targeting itself is a 1-member cyclic chain,
   kept despite min_chain. *)
let test_self_loop_cyclic () =
  let tr =
    Trace.make ~id:0 ~kind:"fix" [| block_at 0x1000 |] [| [ 0 ] |]
  in
  let fused = Fuse.fuse (Packed.freeze (Builder.build [ tr ])) in
  check Alcotest.int "one chain" 1 (Packed.n_chains fused);
  check Alcotest.int "cyclic" 1 (Packed.n_cyclic_chains fused);
  check Alcotest.(array int) "single member" [| 1 |]
    (Packed.chain_lengths fused)

(* A back-edge loop a -> b -> c -> b: b has two forced predecessors so
   it heads the chain [b; c], whose last edge re-enters b — a cyclic
   chain the replayer may fast-forward. *)
let test_back_edge_cycle () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000 |]
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let fused = Fuse.fuse (Packed.freeze (Builder.build [ tr ])) in
  check Alcotest.int "one cyclic chain" 1 (Packed.n_cyclic_chains fused);
  let lengths = Array.to_list (Packed.chain_lengths fused) in
  check Alcotest.bool "the loop body is a 2-chain" true
    (List.mem 2 lengths);
  (* replay a long spin of the loop and cross-check against the unfused
     engine — the fast-forward path in anger *)
  let spin =
    0x1000 :: List.concat (List.init 50 (fun _ -> [ 0x2000; 0x3000 ]))
  in
  let addrs = Array.of_list spin in
  let insns = Array.map (fun _ -> 1) addrs in
  let len = Array.length addrs in
  let base = Packed.freeze (Builder.build [ tr ]) in
  check Alcotest.bool "fast-forwarded replay identical" true
    (batch_snapshot base ~insns addrs ~len
    = batch_snapshot fused ~insns addrs ~len)

let test_min_chain_filter () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000; block_at 0x4000 |]
      [| [ 1 ]; [ 2 ]; [ 3 ]; [] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  (* raising min_chain above the longest run leaves the image unfused —
     and [fuse] then returns the source image itself *)
  let same = Fuse.fuse ~min_chain:4 img in
  check Alcotest.bool "no overlay" false (Packed.is_fused same);
  check Alcotest.bool "source returned" true (same == img);
  Alcotest.check_raises "min_chain 0 rejected"
    (Invalid_argument "Fuse.fuse: min_chain must be >= 1") (fun () ->
      ignore (Fuse.fuse ~min_chain:0 img))

(* ---------------- with_fusion validation ---------------- *)

let fused_fixture () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000 |]
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  (img, Option.get (Packed.fusion_of (Fuse.fuse img)))

let copy_fusion (f : Packed.fusion) =
  {
    Packed.fchain = Array.copy f.Packed.fchain;
    fpos = Array.copy f.Packed.fpos;
    foff = Array.copy f.Packed.foff;
    fcyc = Array.copy f.Packed.fcyc;
    fsig = Array.copy f.Packed.fsig;
    ftgt = Array.copy f.Packed.ftgt;
    fecost = Array.copy f.Packed.fecost;
  }

let test_with_fusion_validation () =
  let img, f = fused_fixture () in
  (* the untouched overlay is accepted *)
  ignore (Packed.with_fusion img (copy_fusion f));
  let expect_invalid name mutate =
    let c = copy_fusion f in
    mutate c;
    try
      ignore (Packed.with_fusion img c);
      Alcotest.failf "with_fusion accepted %s" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "chain on NTE" (fun c ->
      c.Packed.fchain.(0) <- 0;
      c.Packed.fpos.(0) <- 0);
  expect_invalid "chain id out of range" (fun c ->
      let s =
        (* first chained slot *)
        let r = ref (-1) in
        Array.iteri (fun i ch -> if !r < 0 && ch >= 0 then r := i) c.Packed.fchain;
        !r
      in
      c.Packed.fchain.(s) <- 7);
  expect_invalid "duplicate position" (fun c ->
      let a = ref (-1) and b = ref (-1) in
      Array.iteri
        (fun i ch ->
          if ch >= 0 then if !a < 0 then a := i else if !b < 0 then b := i)
        c.Packed.fchain;
      c.Packed.fpos.(!b) <- c.Packed.fpos.(!a);
      c.Packed.fchain.(!b) <- c.Packed.fchain.(!a));
  expect_invalid "signature mismatch" (fun c ->
      c.Packed.fsig.(0) <- c.Packed.fsig.(0) + 1);
  expect_invalid "target mismatch" (fun c ->
      c.Packed.ftgt.(0) <- c.Packed.ftgt.(0) + 1);
  expect_invalid "wrong edge cost" (fun c ->
      c.Packed.fecost.(0) <- c.Packed.fecost.(0) + 1);
  expect_invalid "nonzero fpos on unchained slot" (fun c ->
      let s =
        let r = ref (-1) in
        Array.iteri
          (fun i ch -> if !r < 0 && ch < 0 then r := i)
          c.Packed.fchain;
        !r
      in
      c.Packed.fpos.(s) <- 1);
  expect_invalid "non-monotone foff" (fun c ->
      c.Packed.foff.(Array.length c.Packed.foff - 1) <- 0);
  expect_invalid "bad fcyc flag" (fun c -> c.Packed.fcyc.(0) <- 2)

(* Corrupt TEAPK3 bytes must fail the load (via with_fusion), not
   produce an image that replays differently. *)
let test_teapk3_corruption_rejected () =
  let img, _ = fused_fixture () in
  let fused = Fuse.fuse img in
  let bin = Bytes.of_string (Serialize.packed_to_binary fused) in
  (* flip a byte inside the fsig array (last 3 arrays are fsig, ftgt,
     fecost; step back into fsig: 3 arrays x (4 + 2*4) bytes) *)
  let off = Bytes.length bin - (3 * 12) + 4 in
  Bytes.set bin off (Char.chr (1 + Char.code (Bytes.get bin off)));
  (try
     ignore (Serialize.packed_of_binary (Bytes.to_string bin));
     Alcotest.fail "corrupt TEAPK3 accepted"
   with Serialize.Parse_error _ -> ());
  (* unknown flags word rejected too *)
  let bin2 = Bytes.of_string (Serialize.packed_to_binary fused) in
  Bytes.set bin2 6 '\xFE';
  try
    ignore (Serialize.packed_of_binary (Bytes.to_string bin2));
    Alcotest.fail "unknown TEAPK3 flags accepted"
  with Serialize.Parse_error _ -> ()

(* ---------------- end to end: fused_replay on a real capture -------- *)

let listscan_fixture () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_fuse" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  (flat, starts, insns, len)

let test_fused_replay_listscan () =
  let flat, starts, insns, len = listscan_fixture () in
  let fused, baseline, tuned = Fuse.fused_replay flat ~insns starts ~len in
  check Alcotest.bool "fused" true (Packed.is_fused fused);
  check Alcotest.bool "chains found" true (Packed.n_chains fused > 0);
  check Alcotest.bool "identical snapshots" true
    (Replayer.snapshot baseline = Replayer.snapshot tuned);
  (* fusion stacks on PGO repacking the same way *)
  let tuned_img, _, _ = Repack.pgo_replay flat ~insns starts ~len in
  let refused = Fuse.fuse tuned_img in
  check Alcotest.bool "fuses the repacked image too" true
    (Packed.is_fused refused && Packed.is_repacked refused);
  check Alcotest.bool "repacked+fused replay identical" true
    (batch_snapshot tuned_img ~insns starts ~len
    = batch_snapshot refused ~insns starts ~len);
  (* src counters untouched by the whole cycle *)
  check Alcotest.int "src stats untouched" 0
    (Packed.stats flat).Tea_core.Transition.steps

(* Profile-aware chain selection: listscan's cycle escapes through a
   bimodal state every lap or two, so its profiled expected run sits
   under the default threshold and the chain is gated out entirely —
   [fuse] returns the source image. A permissive threshold restores the
   structural result, and replay stays the identity under any choice. *)
let test_profile_filter () =
  let flat, starts, insns, len = listscan_fixture () in
  let profile = Repack.collect flat starts ~len in
  let gated = Fuse.fuse ~profile flat in
  check Alcotest.bool "low-benefit chain gated out" true (gated == flat);
  let permissive = Fuse.fuse ~profile ~min_expected_run:1.0 flat in
  check Alcotest.bool "permissive threshold keeps the cycle" true
    (Packed.is_fused permissive && Packed.n_chains permissive > 0);
  (* the whole-image coverage gate drops even run-filter survivors when
     the kept chains absorb too little of the stream *)
  let starved =
    Fuse.fuse ~profile ~min_expected_run:1.0 ~min_coverage:0.99 flat
  in
  check Alcotest.bool "coverage gate skips fusion" true (starved == flat);
  check Alcotest.bool "still the identity" true
    (batch_snapshot flat ~insns starts ~len
    = batch_snapshot permissive ~insns starts ~len);
  (* a profile shaped for a different image is rejected *)
  let other = Packed.freeze (Builder.build []) in
  check Alcotest.bool "shape mismatch rejected" true
    (match Fuse.fuse ~profile other with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- goldens on the listscan image ---------------- *)

(* What `tea_tool info` prints for the fused listscan image: the
   describe_packed rendering is a pure function of the arrays, so it is
   frozen byte for byte. *)
let test_info_golden () =
  let flat, _, _, _ = listscan_fixture () in
  let fused = Fuse.fuse flat in
  Support.check_golden_file "info_listscan.txt"
    (Serialize.describe_packed flat ^ "--\n" ^ Serialize.describe_packed fused)

(* The fused loop's telemetry set, frozen like metrics_repack_listscan.txt
   but on a repack+fuse image: listscan repacked from its own stream, then
   fused structurally (the profile gate would drop listscan's bimodal
   cycle, see test_profile_filter), replayed in one batch. It pins
   packed.fused_steps next to the inline-cache and hash-probe counters. *)
let test_metrics_fuse_golden () =
  let flat, starts, insns, len = listscan_fixture () in
  let tuned = Repack.repack flat (Repack.collect flat starts ~len) in
  let fused = Fuse.fuse tuned in
  check Alcotest.bool "repacked and fused" true
    (Packed.is_repacked fused && Packed.n_chains fused > 0);
  Probe.install ();
  let snap =
    Fun.protect
      ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
      (fun () ->
        Replayer.feed_run (Replayer.create_packed fused) ~insns starts ~len;
        Probe.uninstall ())
  in
  Support.check_golden_file "metrics_fuse_listscan.txt"
    (Tea_report.Stats.render ~title:"telemetry" snap)

let () =
  Alcotest.run "tea_fuse"
    [
      ( "differential",
        [
          qtest prop_fusion_is_identity;
          qtest prop_fused_feed_run_equals_feed_addr;
          qtest prop_teapk3_roundtrip;
          qtest prop_sharded_fused_replay;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "straight chain" `Quick test_straight_chain;
          Alcotest.test_case "self-loop is cyclic" `Quick
            test_self_loop_cyclic;
          Alcotest.test_case "back-edge cycle fast-forwards" `Quick
            test_back_edge_cycle;
          Alcotest.test_case "min_chain filter" `Quick test_min_chain_filter;
        ] );
      ( "validation",
        [
          Alcotest.test_case "with_fusion rejects corrupt overlays" `Quick
            test_with_fusion_validation;
          Alcotest.test_case "corrupt TEAPK3 rejected" `Quick
            test_teapk3_corruption_rejected;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "fused_replay on listscan" `Quick
            test_fused_replay_listscan;
          Alcotest.test_case "profile-aware chain selection" `Quick
            test_profile_filter;
          Alcotest.test_case "info golden" `Quick test_info_golden;
          Alcotest.test_case "--metrics golden with fused counters" `Quick
            test_metrics_fuse_golden;
        ] );
    ]
