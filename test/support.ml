(* Helpers shared by the test executables. *)

(* ---------------- golden files ----------------

   Byte-for-byte frozen artifacts under test/goldens/. Regenerate
   intentionally with

     TEA_GOLDEN_UPDATE=$PWD/test/goldens dune exec test/<suite>.exe

   which rewrites the files in the source tree instead of comparing. *)

let update_dir = Sys.getenv_opt "TEA_GOLDEN_UPDATE"

(* `dune runtest` runs from _build/default/test (goldens/ materialized via
   the deps glob); `dune exec test/<suite>.exe` runs from the project
   root, where the source copy lives *)
let golden_root =
  if Sys.file_exists "goldens" then "goldens"
  else Filename.concat "test" "goldens"

let check_golden_file name actual =
  match update_dir with
  | Some dir ->
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc actual;
      close_out oc;
      Printf.printf "updated %s (%d bytes)\n%!" path (String.length actual)
  | None ->
      let path = Filename.concat golden_root name in
      let expected =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error _ ->
          Alcotest.failf
            "missing golden %s - regenerate with TEA_GOLDEN_UPDATE" path
      in
      if expected <> actual then begin
        (* dump the mismatch next to the golden for easy diffing *)
        let got = Filename.temp_file "tea_golden" ".got" in
        let oc = open_out_bin got in
        output_string oc actual;
        close_out oc;
        Alcotest.failf "golden mismatch for %s (actual output in %s)" name got
      end

(* ---------------- sharded replay under the probe ---------------- *)

(* Replays [addrs] over [img] through Tea_parallel.Shard at [jobs]
   workers with telemetry installed; returns the merged profile and the
   probe snapshot. *)
let sharded_snapshot img ~insns addrs ~len jobs =
  let module Probe = Tea_telemetry.Probe in
  Probe.install ();
  Fun.protect
    ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
    (fun () ->
      let profile =
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            Tea_parallel.Shard.replay_arrays pool img ~insns addrs ~len)
      in
      (profile, Probe.uninstall ()))

(* ---------------- random workloads ----------------

   One generator for the engine-equivalence properties. Traces are built
   over a pool of block addresses. Streams draw from the pool, from tail
   addresses no trace contains (the NTE miss path), and from [min_int],
   [max_int] and -1: [min_int] and -1 are the engines' internal
   empty-cell markers. Two shapes:
   - [Uniform]: up to 6 TBBs per trace, each with 0..3 in-trace
     successors, so spans are long enough for binary search and
     prefix-vs-tail layout to matter; uniformly random streams.
   - [Chains]: up to 8 TBBs, each with one successor ~2/3 of the time,
     so fused chains and cycles form; streams mix short repeated runs
     (loop-shaped input) with random PCs, so chain matches, region runs
     and their mismatch fallbacks all happen. *)

let block_at addr =
  Tea_cfg.Block.make Tea_cfg.Block.Branch
    [ (addr, Tea_isa.Insn.Jmp (Tea_isa.Insn.Abs 0)) ]

let pool_size = 16

let pool i = 0x1000 + (0x10 * (i mod (pool_size + 4)))

let stream_pc rand =
  let i = QCheck.Gen.int_range 0 (pool_size + 6) rand in
  if i = pool_size + 4 then min_int
  else if i = pool_size + 5 then max_int
  else if i = pool_size + 6 then -1
  else pool i

type shape = Uniform | Chains

let gen_trace shape id rand =
  let open QCheck.Gen in
  let n = int_range 1 (if shape = Uniform then 6 else 8) rand in
  let idxs = Array.init n (fun _ -> int_range 0 (pool_size - 1) rand) in
  let blocks = Array.map (fun i -> block_at (pool i)) idxs in
  let succs =
    Array.init n (fun _ ->
        let k =
          if shape = Chains && int_range 0 2 rand < 2 then 1
          else int_range 0 3 rand
        in
        let chosen = List.init k (fun _ -> int_range 0 (n - 1) rand) in
        (* one successor per distinct label (= target block start), so
           the automaton stays deterministic *)
        let seen = Hashtbl.create 4 in
        List.filter
          (fun j ->
            let label = pool idxs.(j) in
            if Hashtbl.mem seen label then false
            else begin
              Hashtbl.add seen label ();
              true
            end)
          chosen)
  in
  Tea_traces.Trace.make ~id ~kind:"gen" blocks succs

type workload = {
  w_traces : Tea_traces.Trace.t list;
  w_stream : (int * int) list; (* (address, insns) *)
  w_config : int; (* reference engine configuration, 0..2 *)
}

let gen_workload ?steps shape =
  let open QCheck.Gen in
  let gen rand =
    let n_traces = int_range 1 5 rand in
    let w_traces = List.init n_traces (fun id -> gen_trace shape id rand) in
    let default_steps = if shape = Uniform then 200 else 120 in
    let n_steps = int_range 0 (Option.value steps ~default:default_steps) rand in
    let w_stream =
      match shape with
      | Uniform ->
          List.init n_steps (fun _ -> (stream_pc rand, int_range 0 4 rand))
      | Chains ->
          List.concat
            (List.init n_steps (fun _ ->
                 if int_range 0 4 rand = 0 then
                   let a = stream_pc rand and b = stream_pc rand in
                   let k = int_range 2 6 rand in
                   List.concat (List.init k (fun _ -> [ a; b ]))
                 else [ stream_pc rand ]))
          |> List.map (fun a -> (a, int_range 0 4 rand))
    in
    { w_traces; w_stream; w_config = int_range 0 2 rand }
  in
  QCheck.make
    ~print:(fun w ->
      Printf.sprintf "traces=%d stream=%d config=%d" (List.length w.w_traces)
        (List.length w.w_stream) w.w_config)
    gen

let arrays_of_stream stream =
  ( Array.of_list (List.map fst stream),
    Array.of_list (List.map snd stream),
    List.length stream )

(* Two probe snapshots agree on every counter not in [varying] and on
   every histogram. *)
let snapshots_equal_except varying s1 s2 =
  let module M = Tea_telemetry.Metrics in
  let stable s =
    List.filter (fun (n, _) -> not (List.mem n varying)) s.M.s_counters
  in
  stable s1 = stable s2 && s1.M.s_histograms = s2.M.s_histograms

let ic_sum s =
  let c n = Option.value ~default:0 (Tea_telemetry.Metrics.find_counter s n) in
  c "packed.ic_hit" + c "packed.ic_miss"

(* Probe snapshots of one replay at different job counts agree except
   for the chunk-local inline-cache split: hits and misses may move
   between each other, but their sum may not. *)
let snapshots_equal_mod_ic s1 s2 =
  snapshots_equal_except [ "packed.ic_hit"; "packed.ic_miss" ] s1 s2
  && ic_sum s1 = ic_sum s2

(* The same on a fused image: chain steps consult no inline cache and
   the fused-step counter depends on where seams fall, so neither the IC
   sum nor [packed.fused_steps] is compared. *)
let snapshots_equal_mod_fused s1 s2 =
  snapshots_equal_except
    [ "packed.ic_hit"; "packed.ic_miss"; "packed.fused_steps" ]
    s1 s2
