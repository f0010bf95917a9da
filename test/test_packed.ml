(* Differential tests of the packed flat-array replay engine against the
   reference Transition engine: same DFA, two implementations. The packed
   engine must reproduce the reference engine's state sequences, coverage
   and profiles bit-for-bit on arbitrary automata and address streams —
   that equivalence is what makes the fast path trustworthy. *)

module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Transition = Tea_core.Transition
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Serialize = Tea_core.Serialize
module Pc_trace = Tea_core.Pc_trace

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

open Support

(* Fixtures shared with test_core: T1 cycles 0x100->0x200->0x300->0x100,
   T2 chains 0x400->0x300 (0x300 duplicated across traces). *)
let t1 =
  Trace.linear ~id:0 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

(* Random workloads: {!Support.gen_workload}'s uniform shape. *)
let gen_workload = gen_workload Uniform

let config_of = function
  | 0 -> Transition.config_global_local
  | 1 -> Transition.config_global_no_local
  | _ -> Transition.config_no_global_local

type observation = {
  o_states : Automaton.state list;
  o_covered : int;
  o_total : int;
  o_enters : int;
  o_exits : int;
  o_counts : (Automaton.state * int) list;
  o_stats : int * int * int * int * int;
}

let observe rep stream feed =
  let states = List.map (fun (addr, insns) -> feed rep addr insns) stream in
  let st = Replayer.stats rep in
  {
    o_states = states;
    o_covered = Replayer.covered_insns rep;
    o_total = Replayer.total_insns rep;
    o_enters = Replayer.trace_enters rep;
    o_exits = Replayer.trace_exits rep;
    o_counts = Replayer.tbb_counts rep;
    o_stats =
      ( st.Transition.steps,
        st.Transition.in_trace_hits,
        st.Transition.cache_hits,
        st.Transition.global_hits,
        st.Transition.global_misses );
  }

let feed_one rep addr insns =
  Replayer.feed_addr rep ~insns addr;
  Replayer.state rep

(* The differential property: reference and packed replays of the same
   workload agree on every observable. *)
let prop_packed_equals_reference =
  QCheck.Test.make ~name:"packed replay == reference replay" ~count:300
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      if Automaton.check_deterministic auto <> Ok () then
        QCheck.Test.fail_report "generated automaton not deterministic";
      let reference =
        observe
          (Replayer.create (Transition.create (config_of w.w_config) auto))
          w.w_stream feed_one
      in
      let packed_img = Packed.freeze auto in
      let packed =
        observe (Replayer.create_packed packed_img) w.w_stream feed_one
      in
      let rs, ri, rc, rg, rm = reference.o_stats in
      let ps, pi, pc, pg, pm = packed.o_stats in
      reference.o_states = packed.o_states
      && reference.o_covered = packed.o_covered
      && reference.o_total = packed.o_total
      && reference.o_enters = packed.o_enters
      && reference.o_exits = packed.o_exits
      && reference.o_counts = packed.o_counts
      && rs = ps && ri = pi && rm = pm
      (* packed has no local caches: cross-trace resolutions the reference
         engine splits between cache and container all land in global_hits *)
      && pc = 0
      && pg = rc + rg
      && Packed.check packed_img auto = Ok ())

(* Round-tripping the packed image through bytes must not change replay
   behaviour in any observable way. *)
let prop_serialized_packed_equals_fresh =
  QCheck.Test.make ~name:"packed_of_binary(packed_to_binary) replays identically"
    ~count:100 gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let packed = Packed.freeze auto in
      let loaded = Serialize.packed_of_binary (Serialize.packed_to_binary packed) in
      let a = observe (Replayer.create_packed packed) w.w_stream feed_one in
      let b = observe (Replayer.create_packed loaded) w.w_stream feed_one in
      a = b
      && Packed.n_states loaded = Packed.n_states packed
      && Packed.n_edges loaded = Packed.n_edges packed
      && Packed.n_heads loaded = Packed.n_heads packed)

(* Batched feed_run must be exactly len feed_addr calls, on both engines. *)
let prop_feed_run_equals_feed_addr =
  QCheck.Test.make ~name:"feed_run == repeated feed_addr" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let addrs = Array.of_list (List.map fst w.w_stream) in
      let insns = Array.of_list (List.map snd w.w_stream) in
      let len = Array.length addrs in
      let engines =
        [
          (fun () -> Replayer.create (Transition.create (config_of w.w_config) auto));
          (fun () -> Replayer.create_packed (Packed.freeze auto));
        ]
      in
      List.for_all
        (fun mk ->
          let one = mk () in
          List.iter (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr) w.w_stream;
          let batched = mk () in
          Replayer.feed_run batched ~insns addrs ~len;
          let s1 = Replayer.stats one and s2 = Replayer.stats batched in
          Replayer.state one = Replayer.state batched
          && Replayer.coverage one = Replayer.coverage batched
          && Replayer.tbb_counts one = Replayer.tbb_counts batched
          && Replayer.trace_enters one = Replayer.trace_enters batched
          && Replayer.trace_exits one = Replayer.trace_exits batched
          (* the packed batch loop replicates the step logic inline, so the
             simulated cost accounting must agree exactly too *)
          && s1.Transition.steps = s2.Transition.steps
          && s1.Transition.in_trace_hits = s2.Transition.in_trace_hits
          && s1.Transition.cache_hits = s2.Transition.cache_hits
          && s1.Transition.global_hits = s2.Transition.global_hits
          && s1.Transition.global_misses = s2.Transition.global_misses
          && Replayer.cycles one = Replayer.cycles batched)
        engines)

(* ---------------- Freeze / layout unit tests ---------------- *)

let test_freeze_shape () =
  let auto = Builder.build [ t1; t2 ] in
  let p = Packed.freeze auto in
  check Alcotest.int "live states" (Automaton.n_states auto) (Packed.n_states p);
  (* n_transitions counts NTE->head entries too; packed keeps those in the
     hash, not the edge spans *)
  check Alcotest.int "in-trace edges" 4 (Packed.n_edges p);
  check Alcotest.int "heads" 2 (Packed.n_heads p);
  check Alcotest.(option int) "head 0x100" (Automaton.head_of auto 0x100)
    (Packed.head_of p 0x100);
  check Alcotest.(option int) "head 0x400" (Automaton.head_of auto 0x400)
    (Packed.head_of p 0x400);
  check Alcotest.(option int) "head miss" None (Packed.head_of p 0x999);
  check Alcotest.bool "self-check" true (Packed.check p auto = Ok ());
  let r = Packed.to_raw p in
  check Alcotest.int "offsets cover edges"
    (Array.length r.Packed.labels)
    r.Packed.offsets.(Array.length r.Packed.offsets - 1);
  (* NTE (state 0) has an empty span: its transitions live in the hash *)
  check Alcotest.int "nte span empty" 0 r.Packed.offsets.(1)

let test_step_matches_reference_fixture () =
  let auto = Builder.build [ t1; t2 ] in
  let p = Packed.freeze auto in
  let h1 = Option.get (Automaton.head_of auto 0x100) in
  check Alcotest.int "enter t1" h1 (Packed.step p Automaton.nte 0x100);
  let s2 = Option.get (Automaton.next_in_trace auto h1 0x200) in
  check Alcotest.int "in-trace" s2 (Packed.step p h1 0x200);
  (* trace-to-trace transfer goes through the hash *)
  let h2 = Option.get (Automaton.head_of auto 0x400) in
  check Alcotest.int "cross-trace" h2 (Packed.step p h1 0x400);
  check Alcotest.int "cold pc to NTE" Automaton.nte (Packed.step p h1 0x9999);
  let st = Packed.stats p in
  check Alcotest.int "steps" 4 st.Transition.steps;
  check Alcotest.int "in-trace hits" 1 st.Transition.in_trace_hits;
  check Alcotest.int "global hits" 2 st.Transition.global_hits;
  check Alcotest.int "misses" 1 st.Transition.global_misses;
  check Alcotest.int "no caches" 0 st.Transition.cache_hits;
  check Alcotest.bool "cycles charged" true (Packed.cycles p > 0);
  Packed.reset_counters p;
  check Alcotest.int "reset" 0 (Packed.stats p).Transition.steps;
  check Alcotest.int "reset cycles" 0 (Packed.cycles p)

let test_stale_after_mutation () =
  let auto = Builder.build [ t1 ] in
  let p = Packed.freeze auto in
  check Alcotest.bool "fresh" true (Packed.check p auto = Ok ());
  Automaton.add_trace auto t2;
  check Alcotest.bool "stale detected" true (Packed.check p auto <> Ok ());
  (* re-freezing picks the new trace up *)
  let p' = Packed.freeze auto in
  check Alcotest.bool "refrozen" true (Packed.check p' auto = Ok ());
  check Alcotest.bool "new head visible" true (Packed.head_of p' 0x400 <> None)

let test_step_bad_state () =
  let p = Packed.freeze (Builder.build [ t1 ]) in
  Alcotest.check_raises "way out of range"
    (Invalid_argument "Packed.step: state id outside the frozen image")
    (fun () -> ignore (Packed.step p 9999 0x100));
  Alcotest.check_raises "negative"
    (Invalid_argument "Packed.step: state id outside the frozen image")
    (fun () -> ignore (Packed.step p (-1) 0x100))

let test_empty_automaton () =
  let p = Packed.freeze (Automaton.create ()) in
  check Alcotest.int "no states" 0 (Packed.n_states p);
  check Alcotest.int "no edges" 0 (Packed.n_edges p);
  check Alcotest.int "no heads" 0 (Packed.n_heads p);
  check Alcotest.int "everything is NTE" Automaton.nte
    (Packed.step p Automaton.nte 0x100);
  check Alcotest.int "miss counted" 1 (Packed.stats p).Transition.global_misses

let test_state_insns () =
  let auto = Builder.build [ t1 ] in
  let p = Packed.freeze auto in
  let h = Option.get (Automaton.head_of auto 0x100) in
  check Alcotest.int "head insns" 1 (Packed.state_insns p h);
  check Alcotest.int "nte insns" 0 (Packed.state_insns p Automaton.nte);
  check Alcotest.int "out of range" 0 (Packed.state_insns p 12345)

(* ---------------- Replayer fast path ---------------- *)

let test_feed_run_validation () =
  let rep = Replayer.create_packed (Packed.freeze (Builder.build [ t1 ])) in
  let addrs = [| 0x100; 0x200 |] in
  Alcotest.check_raises "len too large"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep addrs ~len:3);
  Alcotest.check_raises "negative len"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep addrs ~len:(-1));
  Alcotest.check_raises "short insns"
    (Invalid_argument "Replayer.feed_run: insns array shorter than len")
    (fun () -> Replayer.feed_run rep ~insns:[| 1 |] addrs ~len:2);
  (* a len prefix is allowed *)
  Replayer.feed_run rep addrs ~len:1;
  check Alcotest.int "one step" 1 (Replayer.stats rep).Transition.steps

let test_packed_replayer_profile () =
  (* mirror of test_core's replayer profile test, on the packed engine *)
  let auto = Builder.build [ t1 ] in
  let rep = Replayer.create_packed (Packed.freeze auto) in
  let addrs = [| 0x100; 0x200; 0x300; 0x100; 0x200; 0x300; 0x999 |] in
  Replayer.feed_run rep ~insns:(Array.make 7 1) addrs ~len:7;
  check Alcotest.int "covered" 6 (Replayer.covered_insns rep);
  check Alcotest.int "total" 7 (Replayer.total_insns rep);
  check Alcotest.int "one enter" 1 (Replayer.trace_enters rep);
  check Alcotest.int "one exit" 1 (Replayer.trace_exits rep);
  check Alcotest.(list (pair int int)) "per-tbb counts"
    [ (0, 2); (1, 2); (2, 2) ]
    (Replayer.trace_profile rep 0)

let test_transition_accessor_raises () =
  let rep = Replayer.create_packed (Packed.freeze (Builder.build [ t1 ])) in
  Alcotest.check_raises "no reference engine"
    (Invalid_argument "Replayer.transition: packed engine") (fun () ->
      ignore (Replayer.transition rep))

let test_pc_trace_replay_packed () =
  (* capture a real execution once; offline packed replay must match the
     offline reference replay on every observable *)
  let img = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let auto = Builder.build traces in
  let path = Filename.temp_file "tea_pk" ".trc" in
  let n = Tea_pinsim.Trace_capture.record img path in
  check Alcotest.bool "captured blocks" true (n > 1000);
  let reference =
    Pc_trace.replay (Transition.create Transition.config_global_local auto) path
  in
  let packed = Pc_trace.replay_packed (Packed.freeze auto) path in
  Sys.remove path;
  check (Alcotest.float 0.0) "coverage" (Replayer.coverage reference)
    (Replayer.coverage packed);
  check Alcotest.int "enters" (Replayer.trace_enters reference)
    (Replayer.trace_enters packed);
  check Alcotest.int "exits" (Replayer.trace_exits reference)
    (Replayer.trace_exits packed);
  check Alcotest.(list (pair int int)) "profiles"
    (Replayer.tbb_counts reference) (Replayer.tbb_counts packed);
  check Alcotest.int "steps" (Replayer.stats reference).Transition.steps
    (Replayer.stats packed).Transition.steps

(* ---------------- Serialization ---------------- *)

let test_packed_binary_header () =
  let p = Packed.freeze (Builder.build [ t1; t2 ]) in
  let bin = Serialize.packed_to_binary p in
  check Alcotest.string "magic" "TEAPK1" (String.sub bin 0 6);
  let p' = Serialize.packed_of_binary bin in
  check Alcotest.bool "no automaton behind a loaded image" true
    (Packed.automaton p' = None);
  check Alcotest.bool "frozen image keeps its automaton" true
    (Packed.automaton p <> None)

let test_packed_binary_rejects_garbage () =
  let reject s =
    try
      ignore (Serialize.packed_of_binary s);
      Alcotest.failf "accepted %S" s
    with Serialize.Parse_error _ -> ()
  in
  reject "";
  reject "garbage";
  reject "TEAPK1";
  (* truncated: valid magic, then a length with no payload *)
  reject "TEAPK1\xff\xff\xff\x7f";
  (* trailing bytes after a valid image *)
  let good = Serialize.packed_to_binary (Packed.freeze (Builder.build [ t1 ])) in
  reject (good ^ "\x00")

let test_of_raw_validation () =
  let p = Packed.freeze (Builder.build [ t1; t2 ]) in
  let r = Packed.to_raw p in
  let expect_invalid name mutate =
    let copy =
      {
        Packed.offsets = Array.copy r.Packed.offsets;
        labels = Array.copy r.Packed.labels;
        targets = Array.copy r.Packed.targets;
        state_trace = Array.copy r.Packed.state_trace;
        state_tbb = Array.copy r.Packed.state_tbb;
        state_start = Array.copy r.Packed.state_start;
        state_insns = Array.copy r.Packed.state_insns;
        hash_keys = Array.copy r.Packed.hash_keys;
        hash_vals = Array.copy r.Packed.hash_vals;
        hot_len = Array.copy r.Packed.hot_len;
        orig_of = Array.copy r.Packed.orig_of;
      }
    in
    mutate copy;
    try
      ignore (Packed.of_raw copy);
      Alcotest.failf "of_raw accepted %s" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "target out of range" (fun c -> c.Packed.targets.(0) <- 9999);
  expect_invalid "non-monotone offsets" (fun c ->
      c.Packed.offsets.(1) <- c.Packed.offsets.(Array.length c.Packed.offsets - 1) + 1);
  expect_invalid "hash value out of range" (fun c ->
      Array.iteri
        (fun i k -> if k >= 0 then c.Packed.hash_vals.(i) <- 9999)
        c.Packed.hash_keys);
  (* the untouched raw image is accepted *)
  let reloaded = Packed.of_raw r in
  check Alcotest.int "roundtrip states" (Packed.n_states p)
    (Packed.n_states reloaded)

let test_save_load_packed_file () =
  let img = Tea_workloads.Micro.branchy_loop () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let auto = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  let p = Packed.freeze auto in
  let path = Filename.temp_file "tea_pk" ".pki" in
  Serialize.save_packed path p;
  let loaded = Serialize.load_packed path in
  Sys.remove path;
  check Alcotest.int "states" (Packed.n_states p) (Packed.n_states loaded);
  check Alcotest.int "edges" (Packed.n_edges p) (Packed.n_edges loaded);
  check Alcotest.int "heads" (Packed.n_heads p) (Packed.n_heads loaded)

(* ---------------- Table 4 engine column (end to end) ---------------- *)

let test_overhead_ordering_with_packed () =
  let p = Option.get (Tea_workloads.Spec2000.by_name "168.wupwise") in
  let img = Tea_workloads.Spec2000.image p in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let row = Tea_pinsim.Overhead.measure ~traces img in
  let open Tea_pinsim.Overhead in
  (* the paper's §4.2 ordering between the reference configurations... *)
  check Alcotest.bool "Empty >= Global/Local" true (row.empty >= row.global_local);
  check Alcotest.bool "Global/Local fastest reference config" true
    (row.global_local <= row.global_no_local
    && row.global_local <= row.no_global_local);
  (* ...and the packed engine beats the best reference configuration *)
  check Alcotest.bool "Packed <= Global/Local" true (row.packed <= row.global_local);
  check Alcotest.bool "Packed still slower than bare Pin" true
    (row.packed >= row.without_pintool)

let () =
  Alcotest.run "tea_packed"
    [
      ( "differential",
        [
          qtest prop_packed_equals_reference;
          qtest prop_serialized_packed_equals_fresh;
          qtest prop_feed_run_equals_feed_addr;
        ] );
      ( "freeze",
        [
          Alcotest.test_case "shape" `Quick test_freeze_shape;
          Alcotest.test_case "step fixture" `Quick test_step_matches_reference_fixture;
          Alcotest.test_case "stale check" `Quick test_stale_after_mutation;
          Alcotest.test_case "bad state" `Quick test_step_bad_state;
          Alcotest.test_case "empty automaton" `Quick test_empty_automaton;
          Alcotest.test_case "state insns" `Quick test_state_insns;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "feed_run validation" `Quick test_feed_run_validation;
          Alcotest.test_case "packed profile" `Quick test_packed_replayer_profile;
          Alcotest.test_case "transition accessor" `Quick test_transition_accessor_raises;
          Alcotest.test_case "pc-trace packed replay" `Quick test_pc_trace_replay_packed;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "binary header" `Quick test_packed_binary_header;
          Alcotest.test_case "rejects garbage" `Quick test_packed_binary_rejects_garbage;
          Alcotest.test_case "of_raw validation" `Quick test_of_raw_validation;
          Alcotest.test_case "save/load file" `Quick test_save_load_packed_file;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "table4 ordering incl. packed" `Slow
            test_overhead_ordering_with_packed;
        ] );
    ]
