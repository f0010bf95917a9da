(* Benchmark harness: regenerates every table of the paper's evaluation
   (default mode) and runs Bechamel microbenchmarks of the operations each
   table stresses (mode "micro").

   The trajectory modes (repack, fuse, compile, scenario, retune,
   observe, telemetry, parallel) each write a stamped BENCH_<mode>.json
   through {!Harness} and exit 1 on a failed gate.

   Usage:
     dune exec bench/main.exe                 # all 26 benchmarks, Tables 1-4
     dune exec bench/main.exe -- quick        # 8-benchmark subset
     dune exec bench/main.exe -- micro        # Bechamel microbenchmarks
     dune exec bench/main.exe -- table1 ...   # a single table
     dune exec bench/main.exe -- repack --smoke   # a trajectory, small *)

open Harness
module Experiments = Tea_report.Experiments

let quick_set =
  [
    "171.swim"; "172.mgrid"; "177.mesa"; "164.gzip"; "176.gcc"; "181.mcf";
    "253.perlbmk"; "256.bzip2";
  ]

(* --quiet suppresses the per-domain pool counter dumps on stderr. *)
let quiet = ref false

let run_tables ~benchmarks ~which =
  progress "[bench] preparing %d benchmarks (recording mret/ctt/tt under the DBT)..."
    (List.length benchmarks);
  let t0 = Unix.gettimeofday () in
  let benches = Experiments.prepare ~benchmarks () in
  progress "[bench] prepare done in %.1fs" (Unix.gettimeofday () -. t0);
  let wants t = which = [] || List.mem t which in
  if wants "table1" then begin
    progress "[bench] table 1 (size savings)...";
    print_string (Experiments.render_table1 (Experiments.table1 benches));
    print_newline ()
  end;
  if wants "table2" then begin
    progress "[bench] table 2 (replaying)...";
    print_string (Experiments.render_table2 (Experiments.table2 benches));
    print_newline ()
  end;
  if wants "table3" then begin
    progress "[bench] table 3 (recording)...";
    print_string (Experiments.render_table3 (Experiments.table3 benches));
    print_newline ()
  end;
  if wants "table4" then begin
    progress "[bench] table 4 (overhead ablation)...";
    print_string (Experiments.render_table4 (Experiments.table4 benches));
    print_newline ()
  end;
  progress "[bench] total %.1fs" (Unix.gettimeofday () -. t0)

(* ---- Bechamel microbenchmarks: the hot operation behind each table ---- *)

let micro_env () =
  (* A mid-sized workload and its MRET traces as a shared fixture. *)
  let profile = Option.get (Tea_workloads.Spec2000.by_name "176.gcc") in
  let image = Tea_workloads.Spec2000.image profile in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let result = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list result.Tea_dbt.Stardbt.set in
  (image, traces)

let benchmarks () =
  let open Bechamel in
  let image, traces = micro_env () in
  let auto = Tea_core.Builder.build traces in
  let heads = Tea_core.Automaton.heads auto in
  let addrs = Array.of_list (List.map fst heads) in
  let n = Array.length addrs in
  (* Table 1's core cost: building the automaton from a trace set and
     measuring its serialized size. *)
  let table1 =
    Test.make ~name:"table1/algorithm1-build"
      (Staged.stage (fun () ->
           let a = Tea_core.Builder.build traces in
           Sys.opaque_identity (Tea_core.Automaton.byte_size a)))
  in
  (* Table 2's core cost: one replay transition step (Global/Local). *)
  let step_test name config =
    let trans = Tea_core.Transition.create config auto in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let pc = addrs.(!i mod n) in
           Sys.opaque_identity (Tea_core.Transition.step trans Tea_core.Automaton.nte pc)))
  in
  (* Table 3's core cost: the Algorithm 2 state machine on a block stream. *)
  let blocks =
    let acc = ref [] in
    let cb =
      {
        Tea_cfg.Discovery.on_block = (fun b -> if List.length !acc < 4096 then acc := b :: !acc);
        Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
      }
    in
    let _ = Tea_cfg.Discovery.run ~fuel:200_000 image cb in
    Array.of_list (List.rev !acc)
  in
  let table3 =
    let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
    let online = ref (Tea_core.Online.create strategy) in
    let i = ref 0 in
    Test.make ~name:"table3/algorithm2-feed"
      (Staged.stage (fun () ->
           if !i mod 100_000 = 0 then online := Tea_core.Online.create strategy;
           incr i;
           Tea_core.Online.feed !online blocks.(!i mod Array.length blocks)))
  in
  (* The packed engine's version of the same cross-trace step. *)
  let step_packed =
    let packed = Tea_core.Packed.freeze auto in
    let i = ref 0 in
    Test.make ~name:"table4/step-packed"
      (Staged.stage (fun () ->
           incr i;
           let pc = addrs.(!i mod n) in
           Sys.opaque_identity (Tea_core.Packed.step packed Tea_core.Automaton.nte pc)))
  in
  [
    table1;
    step_test "table2/replay-step-global-local" Tea_core.Transition.config_global_local;
    table3;
    step_test "table4/step-no-global-local" Tea_core.Transition.config_no_global_local;
    step_test "table4/step-global-no-local" Tea_core.Transition.config_global_no_local;
    step_test "table4/step-global-local" Tea_core.Transition.config_global_local;
    step_packed;
  ]

let run_micro () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %12.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n%!" name)
        ols)
    (benchmarks ())


(* The parallel driver, measured: the full table sweep at --jobs 1/2/4
   (asserting byte-identical tables), then the sharded PC-trace replay on
   a captured stream (asserting profile equality). Speedup is bounded by
   the machine's cores; the byte-identity checks hold everywhere. *)
let run_parallel_compare ~smoke ~benchmarks =
  let module Pool = Tea_parallel.Pool in
  (* warm the generated-image cache so the sequential baseline doesn't
     pay one-time generation the parallel runs then get for free *)
  List.iter
    (fun n ->
      match Tea_workloads.Spec2000.by_name n with
      | Some p -> ignore (Tea_workloads.Spec2000.image p)
      | None -> ())
    benchmarks;
  let sweep pool =
    let benches = Experiments.prepare ?pool ~benchmarks () in
    String.concat "\n"
      [
        Experiments.render_table1 (Experiments.table1 ?pool benches);
        Experiments.render_table2 (Experiments.table2 ?pool benches);
        Experiments.render_table3 (Experiments.table3 ?pool benches);
        Experiments.render_table4 (Experiments.table4 ?pool benches);
      ]
  in
  progress "[bench] parallel table sweep: %d benchmarks, jobs 1 vs 2 vs 4..."
    (List.length benchmarks);
  let seq_out, seq_dt = time (fun () -> sweep None) in
  Printf.printf "table sweep, jobs 1: %6.1fs (baseline)\n%!" seq_dt;
  let sweep_rows =
    List.map
      (fun jobs ->
        let out, dt =
          time (fun () ->
              Pool.with_pool ~jobs (fun pool ->
                  let out = sweep (Some pool) in
                  if not !quiet then
                    prerr_string
                      (Tea_report.Stats.render ~title:"pool domains"
                         (Pool.metrics_snapshot pool));
                  out))
        in
        gate (out = seq_out) "parallel sweep differs from sequential";
        Printf.printf
          "table sweep, jobs %d: %6.1fs  speedup %.2fx  (byte-identical)\n%!"
          jobs dt (seq_dt /. dt);
        Obj [ ("jobs", Int jobs); ("seconds", f2 dt); ("speedup", f3 (seq_dt /. dt)) ])
      [ 2; 4 ]
  in
  (* sharded offline replay on a real captured stream *)
  let fx = prepare "micro:listscan" in
  let len = fx.len in
  progress "[bench] sharded pc-trace replay: %d blocks from micro:listscan" len;
  let replay_at jobs =
    Pool.with_pool ~jobs (fun pool ->
        let last = ref None in
        let best =
          best_of ~rounds:5 (fun () ->
              let p, dt =
                time (fun () ->
                    Tea_parallel.Shard.replay_arrays pool fx.flat
                      ~insns:fx.insns fx.starts ~len)
              in
              last := Some p;
              dt)
        in
        (Option.get !last, best))
  in
  let seq_profile, seq_replay_dt = replay_at 1 in
  let replay_rows =
    List.map
      (fun jobs ->
        let profile, dt = replay_at jobs in
        gate
          (Tea_parallel.Profile.equal profile seq_profile)
          "sharded replay profile differs";
        let mcycles = float_of_int profile.Tea_parallel.Profile.cycles /. 1e6 in
        Printf.printf
          "replay, jobs %d: %8.1f ns/block  %.1f Mcycles simulated  speedup \
           %.2fx  (profile identical)\n"
          jobs (ns_per ~reps:1 len dt) mcycles (seq_replay_dt /. dt);
        Obj
          [ ("jobs", Int jobs); ("ns_per_block", f2 (ns_per ~reps:1 len dt));
            ("sim_mcycles", f3 mcycles); ("speedup", f3 (seq_replay_dt /. dt)) ])
      [ 1; 2; 4 ]
  in
  Printf.printf
    "note: wall-clock speedup is bounded by available cores (this machine \
     recommends %d domains)\n"
    (Domain.recommended_domain_count ());
  write "parallel" ~smoke
    [ ("benchmarks", Arr (List.map (fun b -> Str b) benchmarks));
      ("sweep_jobs1_seconds", f2 seq_dt);
      ("sweep", Arr sweep_rows);
      ("replay_blocks", Int len);
      ("replay", Arr replay_rows) ]


let run_ablations () =
  progress "[bench] ablation: selection strategies (incl. MFET)...";
  print_string (Tea_report.Ablations.(render_strategies (strategies ())));
  print_newline ();
  progress "[bench] ablation: local-cache size sweep...";
  print_string (Tea_report.Ablations.(render_cache_slots (cache_slots ())));
  print_newline ();
  progress "[bench] ablation: hot-threshold sweep...";
  print_string (Tea_report.Ablations.(render_hot_threshold (hot_threshold ())))

(* Extension studies: the simulator-side use cases of §1, exercised on a
   few benchmarks so the bench output demonstrates them end to end. *)
let run_extensions () =
  let mret = Option.get (Tea_traces.Registry.by_name "mret") in
  let with_traces name f =
    match Tea_workloads.Spec2000.by_name name with
    | None -> ()
    | Some p ->
        let image = Tea_workloads.Spec2000.image p in
        let dbt = Tea_dbt.Stardbt.record ~strategy:mret image in
        f image (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
  in
  progress "[bench] extension: per-trace cache attribution (181.mcf)...";
  with_traces "181.mcf" (fun image traces ->
      let report = Tea_cachesim.Collector.profile ~traces image in
      print_string (Tea_cachesim.Collector.render report);
      print_newline ());
  progress "[bench] extension: per-trace branch prediction (186.crafty)...";
  with_traces "186.crafty" (fun image traces ->
      let report = Tea_bpred.Collector.profile ~traces image in
      print_string (Tea_bpred.Collector.render report);
      print_newline ());
  progress "[bench] extension: trace-cache layout study (scattered micro)...";
  let scattered = Tea_workloads.Micro.scattered () in
  let dbt = Tea_dbt.Stardbt.record ~strategy:mret scattered in
  let r =
    Tea_cachesim.Layout.study
      ~traces:(Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
      scattered
  in
  print_string (Tea_cachesim.Layout.render r);
  print_newline ();
  progress "[bench] extension: profile-weighted optimization (171.swim)...";
  with_traces "171.swim" (fun image traces ->
      let auto = Tea_core.Builder.build traces in
      let trans =
        Tea_core.Transition.create Tea_core.Transition.config_global_local auto
      in
      let rep = Tea_core.Replayer.create trans in
      let filter =
        Tea_pinsim.Edge_filter.create ~emit:(fun b ~expanded ->
            Tea_core.Replayer.feed_addr rep ~insns:expanded b.Tea_cfg.Block.start)
      in
      let _ = Tea_pinsim.Pin.run ~tool:(Tea_pinsim.Edge_filter.callbacks filter) image in
      Tea_pinsim.Edge_filter.flush filter;
      let total =
        List.fold_left
          (fun acc t -> acc + (Tea_opt.Opt.weighted rep t).Tea_opt.Opt.expected_cycles)
          0 traces
      in
      Printf.printf
        "expected cycles recovered by optimizing swim's traces: %d (of %d native)\n"
        total (Tea_pinsim.Pin.native_cycles image))


(* ---- telemetry overhead gate ----

   The probes compiled into the hot paths must cost nothing when nothing
   is installed: the disabled entry point is one atomic load and a
   branch. This mode pins that down empirically on the packed replay of
   micro:listscan's full PC stream — two independent best-of-N series
   with telemetry disabled must agree within 2% (any systematic probe
   cost would show up as much more than scheduler noise on this loop),
   and the telemetry-enabled series is reported alongside for scale. *)
let run_telemetry ~smoke =
  let fx = prepare "micro:listscan" in
  let len = fx.len in
  progress "[bench] telemetry overhead gate: %d blocks from micro:listscan" len;
  (* one replay of the stream is ~100us — far too short to time against
     gettimeofday noise, so each sample times [reps] back-to-back replays
     (tens of ms) and a series keeps the best of 8 samples plus a warmup *)
  let reps = 100 in
  let sample = repeat reps (fun () -> ignore (replay fx fx.flat)) in
  (* the two disabled series are interleaved sample-by-sample so slow
     machine drift (frequency scaling, neighbours) hits both equally;
     what remains is per-sample noise, which best-of-8 suppresses *)
  let rec measure attempts =
    let a, b = interleaved ~rounds:8 sample sample in
    let drift = abs_float (a -. b) /. min a b in
    if drift <= 0.02 || attempts <= 1 then (a, b, drift)
    else begin
      progress "[bench] drift %.2f%% > 2%%, re-measuring (%d attempts left)"
        (100.0 *. drift) (attempts - 1);
      measure (attempts - 1)
    end
  in
  let a, b, drift = measure 3 in
  let ns = ns_per ~reps len in
  Printf.printf
    "telemetry disabled: %8.1f ns/block vs %8.1f ns/block  (drift %.2f%%, \
     gate 2%%)\n"
    (ns a) (ns b) (100.0 *. drift);
  gate (drift <= 0.02)
    "disabled-telemetry replay drifts more than 2%% — the no-op probe path \
     is not free";
  Tea_telemetry.Probe.install ();
  let e = best_of ~rounds:8 sample in
  let snap = Tea_telemetry.Probe.uninstall () in
  let overhead = 100.0 *. ((e /. min a b) -. 1.0) in
  Printf.printf "telemetry enabled:  %8.1f ns/block  (+%.1f%% vs best disabled)\n"
    (ns e) overhead;
  let steps =
    Option.value ~default:0
      (Tea_telemetry.Metrics.find_counter snap "replayer.steps")
  in
  Printf.printf "probe counters collected while enabled: replayer.steps=%d\n"
    steps;
  gate (steps = 9 * reps * len) "enabled-telemetry run missed replay steps";
  write "telemetry" ~smoke
    [ ("blocks", Int len); ("reps", Int reps);
      ("disabled_ns_per_block", Arr [ f2 (ns a); f2 (ns b) ]);
      ("drift_pct", f2 (100.0 *. drift)); ("drift_gate_pct", f2 2.0);
      ("enabled_ns_per_block", f2 (ns e)); ("enabled_overhead_pct", f2 overhead);
      ("replayer_steps", Int steps) ]

(* The workloads the replay trajectories sweep: the four hot-loop micros
   behind the loop-scoped geomeans, then the SPEC set; two in smoke. *)
let sweep_names ~smoke =
  if smoke then [ "micro:listscan"; "181.mcf" ]
  else List.map fst micro_set @ Tea_workloads.Spec2000.names

let geomean = Tea_report.Stats.geomean

let slowest = List.fold_left min infinity

(* Share of [img]'s replay steps handled inside fused chains, from the
   probe counters (0 when the harness itself runs under
   --telemetry/--metrics — the probe set is then owned by the driver). *)
let fused_fraction fx img =
  if Tea_telemetry.Probe.enabled () then 0.0
  else begin
    Tea_telemetry.Probe.install ();
    ignore (replay fx img);
    let snap = Tea_telemetry.Probe.uninstall () in
    let c k =
      Option.value ~default:0 (Tea_telemetry.Metrics.find_counter snap k)
    in
    let steps = c "replayer.steps" in
    if steps = 0 then 0.0
    else float_of_int (c "packed.fused_steps") /. float_of_int steps
  end

(* ---- profile-guided repacking: the BENCH_repack.json trajectory ----

   For every workload: record traces, freeze the flat image, capture the
   PC stream once, collect a profile on that stream, repack, then time
   flat vs repacked replay of the identical stream. Two hard gates per
   workload: the TBB mappings must be byte-identical, and the repacked
   image must never charge more simulated cycles than the flat one on
   its own profiling stream — the per-state argmin always has the source
   layout as a candidate, so a violation is a bug, not a tuning miss.

   Traces are recorded with the condition-tree strategy: MRET superblocks
   give every state at most one in-trace successor, so there is no edge
   span to reorder and the only repacking lever is the inline cache; tree
   traces produce the branching spans (2-4 edges) whose dispatch cost the
   pass exists to cut. Wall-clock numbers are machine-dependent and are
   reported, not gated. *)
let run_repack_one name =
  let fx = prepare ~strategy:"ctt" name in
  let flat = fx.flat and tuned = Lazy.force fx.repacked and len = fx.len in
  let base_rep = replay fx flat and tuned_rep = replay fx tuned in
  gate
    (Tea_core.Replayer.tbb_counts base_rep = Tea_core.Replayer.tbb_counts tuned_rep)
    "%s: repacked TBB mapping differs" name;
  let base_cycles = Tea_core.Replayer.cycles base_rep in
  let tuned_cycles = Tea_core.Replayer.cycles tuned_rep in
  gate (tuned_cycles <= base_cycles)
    "%s: repacked charges more simulated cycles (%d > %d)" name tuned_cycles
    base_cycles;
  gate (tuned_cycles > 0) "%s: replay charged no simulated cycles" name;
  (* Two series per layout, each sampled interleaved flat/tuned: the full
     replay (batch loop plus per-block accounting, the end-to-end number)
     and the bare transition function ({!Tea_core.Packed.step} on the
     same stream, the dispatch cost the pass actually targets — the
     per-block replay accounting is identical either way and dilutes the
     ratio on tiny automata). *)
  let reps = reps_for ~budget:2_000_000 len in
  let sample img = repeat reps (fun () -> ignore (replay fx img)) in
  let sample_step img =
    repeat reps (fun () ->
        let s = ref Tea_core.Automaton.nte in
        for i = 0 to len - 1 do
          s := Tea_core.Packed.step img !s (Array.unsafe_get fx.starts i)
        done;
        ignore (Sys.opaque_identity !s))
  in
  let ns = ns_per ~reps len in
  let base_ns, tuned_ns = interleaved ~rounds:5 (sample flat) (sample tuned) in
  let base_step, tuned_step =
    interleaved ~rounds:5 (sample_step flat) (sample_step tuned)
  in
  let base_ns = ns base_ns and tuned_ns = ns tuned_ns in
  let base_step = ns base_step and tuned_step = ns tuned_step in
  let hits = Tea_core.Packed.ic_hits tuned
  and misses = Tea_core.Packed.ic_misses tuned in
  let ic_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let replay_speedup = base_ns /. tuned_ns and step_speedup = base_step /. tuned_step in
  let cycle_ratio = float_of_int tuned_cycles /. float_of_int base_cycles in
  let hot_edges = Tea_core.Packed.hot_edges tuned in
  let moved = Tea_opt.Repack.moved_states tuned in
  gate (base_ns > 0. && tuned_ns > 0. && base_step > 0. && tuned_step > 0.)
    "%s: a replay timed at 0 ns" name;
  Printf.printf
    "%-16s replay %5.1f -> %5.1f ns (%.2fx)  step %5.1f -> %5.1f ns \
     (%.2fx)  cycles %.3fx  ic %5.1f%%  %d hot edges, %d moved\n%!"
    name base_ns tuned_ns replay_speedup base_step tuned_step step_speedup
    cycle_ratio (100.0 *. ic_rate) hot_edges moved;
  let hot = List.mem_assoc name micro_set in
  ( Obj
      [ ("name", Str name); ("hot", Bool hot); ("blocks", Int len);
        ( "baseline",
          Obj
            [ ("replay_ns_per_block", f2 base_ns); ("step_ns", f2 base_step);
              ("sim_cycles", Int base_cycles) ] );
        ( "repacked",
          Obj
            [ ("replay_ns_per_block", f2 tuned_ns); ("step_ns", f2 tuned_step);
              ("sim_cycles", Int tuned_cycles); ("ic_hit_rate", f4 ic_rate);
              ("hot_edges", Int hot_edges); ("moved_states", Int moved) ] );
        ("replay_speedup", f3 replay_speedup); ("step_speedup", f3 step_speedup);
        ("cycle_ratio", f4 cycle_ratio) ],
    (hot, replay_speedup, step_speedup, cycle_ratio) )

let run_repack ~smoke =
  let names = sweep_names ~smoke in
  progress "[bench] repack: %d workloads, ctt traces, profile-guided layout..."
    (List.length names);
  let rows, stats = List.split (List.map run_repack_one names) in
  let geo f = geomean (List.map f stats) in
  let geo_replay = geo (fun (_, r, _, _) -> r) in
  let geo_step = geo (fun (_, _, s, _) -> s) in
  let geo_hot =
    geomean (List.filter_map (fun (h, _, s, _) -> if h then Some s else None) stats)
  in
  let geo_cycles = geo (fun (_, _, _, c) -> c) in
  Printf.printf
    "geomean replay speedup %.2fx; step speedup %.2fx all, %.2fx hot-loop \
     (target >= 1.2x); cycle ratio %.3fx\n"
    geo_replay geo_step geo_hot geo_cycles;
  gate (geo_replay > 0. && geo_step > 0. && geo_hot > 0.)
    "repack: a geomean speedup is not positive";
  gate (geo_cycles > 0. && geo_cycles <= 1.0)
    "repacking increased geomean simulated cycles (%.3fx)" geo_cycles;
  write "repack" ~smoke
    [ ("strategy", Str "ctt");
      ("hot_prefix_cap", Int Tea_opt.Repack.default_hot_prefix);
      ("workloads", Arr rows);
      ("geomean_replay_speedup_all", f3 geo_replay);
      ("geomean_step_speedup_all", f3 geo_step);
      ("geomean_step_speedup_hot", f3 geo_hot);
      ("geomean_cycle_ratio", f4 geo_cycles) ]

(* ---- superstate fusion: the BENCH_fuse.json trajectory ----

   For every workload: record MRET traces (superblocks give every state at
   most one in-trace successor — the chain-rich shape fusion targets),
   freeze, profile-repack on the captured stream (the repacked engine is
   the baseline), fuse the repacked image, then time baseline vs fused
   replay of the identical stream. One hard gate per workload: the full
   replay snapshot — per-TBB counts, coverage, enters/exits, transition
   stats and simulated cycles — must be bit-identical between the two
   engines. Fusion is a pure dispatch-cost optimization; any observable
   difference is a bug.

   The speedup target is scoped to loop-dominated workloads: the hot-loop
   micros plus every workload whose replay stream spends >= 50% of its
   steps inside fused chains. Straight-line or cold-dominated workloads
   fall back to the batch loop's ordinary dispatch step and are expected
   near 1.0x; they are reported and floor-checked, not geomean-gated. *)
let run_fuse_one name =
  let fx = prepare name in
  let fused = Lazy.force fx.fused in
  let baseline = Lazy.force fx.repacked in
  let base_rep = replay fx baseline and fused_rep = replay fx fused in
  gate
    (Tea_parallel.Profile.equal
       (Tea_parallel.Profile.of_replayer base_rep)
       (Tea_parallel.Profile.of_replayer fused_rep))
    "%s: fused replay diverged from the repacked baseline" name;
  let fraction = fused_fraction fx fused in
  let reps = reps_for ~budget:2_000_000 fx.len in
  let sample img = repeat reps (fun () -> ignore (replay fx img)) in
  let base_ns, fused_ns = interleaved ~rounds:5 (sample baseline) (sample fused) in
  let base_ns = ns_per ~reps fx.len base_ns and fused_ns = ns_per ~reps fx.len fused_ns in
  let loopy = List.mem_assoc name micro_set || fraction >= 0.5 in
  let chains = Tea_core.Packed.n_chains fused in
  let cyclic = Tea_core.Packed.n_cyclic_chains fused in
  let states = Tea_core.Packed.fused_edges fused in
  let cycles = Tea_core.Replayer.cycles fused_rep in
  gate
    (fx.len > 0 && cycles > 0 && cyclic <= chains && fraction >= 0.
    && fraction <= 1. && base_ns > 0. && fused_ns > 0.)
    "%s: inconsistent fuse row" name;
  Printf.printf
    "%-16s replay %5.1f -> %5.1f ns (%.2fx)  %d chains (%d cyclic, %d \
     states)  %4.1f%% fused steps%s\n%!"
    name base_ns fused_ns (base_ns /. fused_ns) chains cyclic states
    (100.0 *. fraction)
    (if loopy then "  [loopy]" else "");
  ( Obj
      [ ("name", Str name); ("loopy", Bool loopy); ("blocks", Int fx.len);
        ("fused_step_fraction", f4 fraction); ("chains", Int chains);
        ("cyclic_chains", Int cyclic); ("fused_states", Int states);
        ("sim_cycles", Int cycles); ("baseline_replay_ns_per_block", f2 base_ns);
        ("fused_replay_ns_per_block", f2 fused_ns);
        ("replay_speedup", f3 (base_ns /. fused_ns)) ],
    (loopy, base_ns /. fused_ns) )

let run_fuse ~smoke =
  let names = sweep_names ~smoke in
  progress
    "[bench] fuse: %d workloads, mret traces, superstate fusion over the \
     repacked engine..."
    (List.length names);
  let rows, stats = List.split (List.map run_fuse_one names) in
  let speedups = List.map snd stats in
  let geo_all = geomean speedups in
  let loopy = List.filter_map (fun (l, s) -> if l then Some s else None) stats in
  let geo_loopy = geomean (if loopy = [] then speedups else loopy) in
  let floor = slowest speedups in
  Printf.printf
    "geomean replay speedup: %.2fx all, %.2fx loop-dominated (target >= \
     1.3x); slowest workload %.2fx (floor 0.95x)\n"
    geo_all geo_loopy floor;
  if floor < 0.95 then
    progress "[bench] WARNING: a workload regressed below the 0.95x floor";
  gate
    (geo_all > 0. && geo_loopy > 0. && floor > 0.
    && Tea_opt.Fuse.default_min_expected_run > 0.
    && Tea_opt.Fuse.default_min_coverage > 0.
    && Tea_opt.Fuse.default_min_coverage <= 1.)
    "fuse: a geomean is not positive or a default gate is out of range";
  write "fuse" ~smoke
    [ ("strategy", Str "mret");
      ("min_chain", Int Tea_opt.Fuse.default_min_chain);
      ("min_expected_run", Num (1, Tea_opt.Fuse.default_min_expected_run));
      ("min_coverage", f2 Tea_opt.Fuse.default_min_coverage);
      ("workloads", Arr rows);
      ("geomean_replay_speedup_all", f3 geo_all);
      ("geomean_replay_speedup_loopy", f3 geo_loopy);
      ("min_replay_speedup", f3 floor) ]

(* ---- closure-threaded dispatch: the BENCH_compile.json trajectory ----

   For every workload: record condition-tree traces (branching spans are
   the dispatch shapes closure compilation specializes), freeze,
   profile-repack and fuse on the captured stream (the baseline —
   compilation composes over both passes), compile the tuned image, then
   time interpreted vs compiled replay of the identical stream. Three
   hard gates per workload: the compiled TBB mapping must match the
   reference transition engine's on the raw automaton, and the full
   profile and the simulated cycles must be bit-identical to the
   interpreted tuned engine. Compilation is a pure wall-clock
   optimization — the per-step charges are captured from the same cost
   tables at build time, so any observable drift is a bug.

   The speedup target is scoped to branchy workloads: streams spending
   < 50% of their steps inside fused chains, so interpreted dispatch
   actually walks spans per step — the shape the straight-line compares
   replace. Chain-dominated streams already replay through bulk
   accounting on both engines and are floor-checked, not geomean-gated. *)
let run_compile_one name =
  let fx = prepare ~strategy:"ctt" name in
  let fused = Lazy.force fx.fused in
  let base_rep = replay fx fused in
  let compiled = Tea_opt.Compile.compile (Tea_core.Packed.dup fused) in
  let comp_rep = Tea_core.Replayer.create_compiled compiled in
  Tea_core.Replayer.feed_run comp_rep ~insns:fx.insns fx.starts ~len:fx.len;
  let ref_rep =
    Tea_core.Replayer.create
      (Tea_core.Transition.create Tea_core.Transition.config_global_local fx.auto)
  in
  Tea_core.Replayer.feed_run ref_rep ~insns:fx.insns fx.starts ~len:fx.len;
  gate
    (Tea_core.Replayer.tbb_counts ref_rep = Tea_core.Replayer.tbb_counts comp_rep)
    "%s: compiled TBB mapping diverged from the reference engine" name;
  gate
    (Tea_parallel.Profile.equal
       (Tea_parallel.Profile.of_replayer base_rep)
       (Tea_parallel.Profile.of_replayer comp_rep))
    "%s: compiled replay profile diverged from the interpreted engine" name;
  let cycles = Tea_core.Replayer.cycles comp_rep in
  gate
    (cycles = Tea_core.Replayer.cycles base_rep)
    "%s: compiled replay charges different simulated cycles (%d <> %d)" name
    cycles (Tea_core.Replayer.cycles base_rep);
  let fraction = fused_fraction fx fused in
  (* the compiled image is built once outside the timing loop — compile
     is O(states), a one-time cost amortized over the whole replay
     fleet, not a per-replay one *)
  let timed = Tea_opt.Compile.compile (Tea_core.Packed.dup fused) in
  let reps = reps_for ~budget:2_000_000 fx.len in
  let interp_ns, comp_ns =
    interleaved ~rounds:5
      (repeat reps (fun () -> ignore (replay fx fused)))
      (repeat reps (fun () ->
           let rep = Tea_core.Replayer.create_compiled timed in
           Tea_core.Replayer.feed_run rep ~insns:fx.insns fx.starts ~len:fx.len))
  in
  let interp_ns = ns_per ~reps fx.len interp_ns and comp_ns = ns_per ~reps fx.len comp_ns in
  let branchy = fraction < 0.5 in
  let closures = Tea_core.Compiled.n_closures compiled in
  let fallback = Tea_core.Compiled.fallback_states compiled in
  let chained = Tea_core.Compiled.chained_states compiled in
  gate
    (fx.len > 0 && cycles > 0 && closures > 0 && fraction >= 0.
    && fraction <= 1. && interp_ns > 0. && comp_ns > 0.)
    "%s: inconsistent compile row" name;
  Printf.printf
    "%-16s replay %5.1f -> %5.1f ns (%.2fx)  %d closures (%d minihash, %d \
     chain matchers)  %4.1f%% fused steps%s\n%!"
    name interp_ns comp_ns (interp_ns /. comp_ns) closures fallback chained
    (100.0 *. fraction)
    (if branchy then "  [branchy]" else "");
  ( Obj
      [ ("name", Str name); ("branchy", Bool branchy); ("blocks", Int fx.len);
        ("fused_step_fraction", f4 fraction); ("closures", Int closures);
        ("minihash_fallback_states", Int fallback); ("chain_matchers", Int chained);
        ("sim_cycles", Int cycles); ("fused_replay_ns_per_block", f2 interp_ns);
        ("compiled_replay_ns_per_block", f2 comp_ns);
        ("replay_speedup", f3 (interp_ns /. comp_ns)) ],
    (branchy, interp_ns /. comp_ns) )

let run_compile ~smoke =
  let names = sweep_names ~smoke in
  progress
    "[bench] compile: %d workloads, ctt traces, closure-threaded dispatch \
     over the repacked+fused engine..."
    (List.length names);
  let rows, stats = List.split (List.map run_compile_one names) in
  let speedups = List.map snd stats in
  let geo_all = geomean speedups in
  let branchy = List.filter_map (fun (b, s) -> if b then Some s else None) stats in
  gate (branchy <> []) "compile: no branchy workload in the sweep";
  gate (Tea_core.Compiled.scan_cap >= 2) "compile: scan_cap below 2";
  let geo_branchy = geomean branchy in
  let floor = slowest speedups in
  Printf.printf
    "geomean replay speedup: %.2fx all, %.2fx branchy (target >= 1.15x); \
     slowest workload %.2fx (floor 0.98x)\n"
    geo_all geo_branchy floor;
  if geo_branchy < 1.15 then
    progress "[bench] WARNING: branchy geomean %.2fx below the 1.15x target"
      geo_branchy;
  if floor < 0.98 then
    progress "[bench] WARNING: a workload regressed below the 0.98x floor";
  gate (geo_all > 0. && floor > 0.) "compile: a geomean is not positive";
  write "compile" ~smoke
    [ ("strategy", Str "ctt"); ("scan_cap", Int Tea_core.Compiled.scan_cap);
      ("workloads", Arr rows);
      ("geomean_replay_speedup_all", f3 geo_all);
      ("geomean_replay_speedup_branchy", f3 geo_branchy);
      ("min_replay_speedup", f3 floor) ]

(* ---- adversarial scenarios: the BENCH_scenario.json trajectory ----

   Rows cover the three hazard classes over >= 3 base workloads:
   multi-asid interleaving (round-robin and seeded-random schedules over
   all bases at once), self-modifying code (periodic invalidation per
   base) and mid-trace interrupts (a periodic signal per base). Every row
   enforces the hard gate before it is timed — demuxed replay
   (sequential [Multi_replayer] AND demux-first sharding at jobs 2 and 4,
   over flat AND repack+fuse-tuned per-asid images) must produce per-asid
   Profile snapshots equal to replaying each asid's projection in
   isolation. Timing is the sequential demuxed replay of the synthesized
   event file (decode included), best-of-5 after one warmup. *)

module Scenario = Tea_workloads.Scenario

let scenario_jobs = [ 2; 4 ]

let scenario_engines = [ "flat"; "repack+fuse" ]

let run_scenario_row ~label ~kind ~n_bases (preps : fixture array) tuned scn =
  let file = Filename.temp_file "tea_scn" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let n_events = Scenario.write_file file scn in
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun (x, p) (y, q) -> x = y && Tea_parallel.Profile.equal p q)
         a b
  in
  List.iter2
    (fun engine img_for ->
      let make a =
        Tea_core.Replayer.create_packed (Tea_core.Packed.dup (img_for a))
      in
      let isolated = Tea_core.Multi_replayer.replay_isolated make file in
      let check how demuxed =
        gate (same demuxed isolated)
          "%s: %s demuxed replay (%s) diverged from isolated per-asid replay"
          label engine how
      in
      check "sequential"
        (Tea_core.Multi_replayer.snapshots
           (Tea_core.Multi_replayer.replay_events make file));
      List.iter
        (fun jobs ->
          Tea_parallel.Pool.with_pool ~jobs (fun pool ->
              check
                (Printf.sprintf "jobs %d" jobs)
                (Tea_parallel.Shard.replay_events pool img_for file)))
        scenario_jobs)
    scenario_engines
    [ (fun a -> preps.(a).flat); (fun a -> tuned.(a)) ];
  let runs = Tea_parallel.Shard.load_events file in
  let blocks =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left (fun acc r -> acc + r.Tea_parallel.Shard.len) acc rs)
      0 runs
  in
  let n_runs = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 runs in
  let asids = List.length runs in
  gate
    (n_events >= blocks && blocks > 0 && n_runs >= 1
    && asids = if kind = "interleave" then n_bases else 1)
    "%s: %d events, %d blocks, %d runs over %d asids" label n_events blocks
    n_runs asids;
  let make_flat a =
    Tea_core.Replayer.create_packed (Tea_core.Packed.dup preps.(a).flat)
  in
  let reps = reps_for ~budget:500_000 n_events in
  let best =
    best_of ~rounds:5
      (repeat reps (fun () ->
           ignore (Tea_core.Multi_replayer.replay_events make_flat file)))
  in
  let ns = ns_per ~reps n_events best in
  gate (ns > 0.) "%s: replay timed at 0 ns" label;
  Printf.printf
    "%-24s %d asids  %7d events  %7d blocks in %3d runs  %6.1f ns/event  \
     [gate ok]\n%!"
    label asids n_events blocks n_runs ns;
  Obj
    [ ("name", Str label); ("kind", Str kind); ("asids", Int asids);
      ("events", Int n_events); ("blocks", Int blocks); ("runs", Int n_runs);
      ("replay_ns_per_event", f2 ns) ]

let run_scenario ~smoke =
  let bases =
    if smoke then [ "micro:listscan"; "micro:copy"; "181.mcf" ]
    else [ "micro:listscan"; "micro:copy"; "micro:branchy"; "181.mcf"; "164.gzip" ]
  in
  progress
    "[bench] scenario: %d bases, mret traces, gating demuxed vs isolated at \
     jobs 1/2/4, flat and repack+fuse..."
    (List.length bases);
  let preps = Array.of_list (List.map (fun n -> prepare n) bases) in
  (* forced here: shard workers look images up from several domains *)
  let tuned = Array.map (fun fx -> Lazy.force fx.fused) preps in
  let streams =
    List.mapi
      (fun asid (name, fx) ->
        Scenario.stream ~asid ~name ~starts:fx.starts ~insns:fx.insns ~len:fx.len)
      (List.combine bases (Array.to_list preps))
  in
  let interrupt_every s = max 32 (s.Scenario.len / 8) in
  let rows =
    [ ("interleave-rr", "interleave",
       Scenario.interleave ~quantum:8 ~schedule:Scenario.Round_robin streams);
      ("interleave-rand", "interleave",
       Scenario.interleave ~quantum:8 ~schedule:(Scenario.Random_sched 42)
         streams) ]
    @ List.map
        (fun s -> ("smc:" ^ s.Scenario.name, "smc", Scenario.smc ~period:64 s))
        streams
    @ List.map
        (fun s ->
          ( "interrupt:" ^ s.Scenario.name, "interrupt",
            Scenario.interrupt ~every:(interrupt_every s) s ))
        streams
  in
  let n_bases = List.length bases in
  let rows =
    List.map
      (fun (label, kind, scn) ->
        run_scenario_row ~label ~kind ~n_bases preps tuned scn)
      rows
  in
  write "scenario" ~smoke
    [ ("strategy", Str "mret");
      ("bases", Arr (List.map (fun b -> Str b) bases));
      ("jobs_gated", Arr (List.map (fun j -> Int j) (1 :: scenario_jobs)));
      ("engines_gated", Arr (List.map (fun e -> Str e) scenario_engines));
      ("gate", Str "demuxed == isolated per-asid Profile equality");
      ("rows", Arr rows) ]

(* ---- closed-loop continuous PGO: the BENCH_retune.json trajectory ----

   A phase-shift workload: the automaton has two long fusible chains, A
   and B; the daemon boots on an image repacked+fused for chain A while
   every client session replays chain B — the image is mistuned for the
   traffic it actually gets. The no-retune daemon stays mistuned
   forever; the --retune daemon detects the drift, rebuilds in the
   background and hot-swaps to a B-tuned image. Rows report replay-only
   ns/block (Server.drain_totals deltas: pool busy time over completed
   sessions, excluding socket I/O and decode) before the swap, after the
   swap, and on the baseline daemon over the same windows, plus the
   measured swap pause. Hard gates: fleet == offline across the swap on
   both daemons, and post-swap steady-state throughput >= 1.15x the
   no-retune daemon. *)

let retune_floor = 1.15

let retune_fixture () =
  (* two recorded loops: n forced states whose last edge re-enters the
     head — each is one cyclic fusible chain, and profile-aware fusion
     keeps only the one the guiding stream actually spins in *)
  let loop ~id base n =
    Tea_traces.Trace.make ~id ~kind:"bench"
      (Array.init n (fun i ->
           Tea_cfg.Block.make Tea_cfg.Block.Branch
             [ (base + (16 * i), Tea_isa.Insn.Jmp (Tea_isa.Insn.Abs 0)) ]))
      (Array.init n (fun i -> [ (i + 1) mod n ]))
  in
  (* 24-state loops: small enough that the drift gauge's top-K support
     window sees the whole automaton, so a phase shift moves the whole
     distribution *)
  let n = 24 in
  let flat =
    Tea_core.Packed.freeze
      (Tea_core.Builder.build
         [ loop ~id:0 0x10000 n; loop ~id:1 0x80000 n ])
  in
  let cycle base reps =
    Array.init (n * reps) (fun i -> base + (16 * (i mod n)))
  in
  (flat, cycle 0x10000 2000, cycle 0x80000 2000)

let retune_session_bytes starts =
  let tmp = Filename.temp_file "tea_bench_retune" ".trc" in
  let w = Tea_core.Pc_trace.open_writer ~format:Tea_core.Pc_trace.V2 tmp in
  Array.iter
    (fun start ->
      Tea_core.Pc_trace.write_event w (Tea_core.Pc_trace.Block { start; insns = 1 }))
    starts;
  Tea_core.Pc_trace.close_writer w;
  let s = Tea_core.Pc_trace.read_all tmp in
  Sys.remove tmp;
  s

let retune_epoch_of_scrape text =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "tea_image_epoch"; v ] -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

(* Drive one daemon through the phase shift: [warm] phase-A sessions
   (matching both the image's tuning and the drift reference, so the
   trigger stays quiet), then phase-B sessions. With [retune] the pre
   window runs B sessions until the scrape shows the epoch bumped (the
   swap landed); without, it runs [pre] B sessions so both daemons see
   the same traffic schedule. Returns ns/block over the pre and post
   windows plus swap stats; enforces the fleet == offline gate. *)
let run_retune_daemon ~jobs ~retune ~drift_ref ~base ~image ~warm ~session
    ~pre ~post =
  let sock = Filename.temp_file "tea_bench_retune" ".sock" in
  Sys.remove sock;
  let srv =
    if retune then
      Tea_serve.Server.create ~offline_check:true
        ~drift:(Tea_observe.Drift.create drift_ref)
        ~base
        ~retune:
          (* fire on the first over-threshold session; the long cooldown
             keeps later B sessions (still far from the phase-A drift
             reference) from churning out redundant rebuilds inside the
             measurement window *)
          { Tea_serve.Server.default_retune with up = 1; cooldown = 1000 }
        ~jobs ~image
        (Tea_serve.Frame.Unix_sock sock)
    else
      Tea_serve.Server.create ~offline_check:true ~jobs ~image
        (Tea_serve.Frame.Unix_sock sock)
  in
  Fun.protect ~finally:(fun () -> Tea_serve.Server.close srv) @@ fun () ->
  let addr = Tea_serve.Server.addr srv in
  let driver = Domain.spawn (fun () -> Tea_serve.Server.run srv) in
  let send () = ignore (Tea_serve.Client.replay_string addr session) in
  (* phase A: warmup sessions, outside both windows *)
  for _ = 1 to 2 do
    ignore (Tea_serve.Client.replay_string addr warm)
  done;
  (* phase shift: from here every session replays chain B *)
  let ns0, blk0 = Tea_serve.Server.drain_totals srv in
  let pre_sessions = ref 0 in
  if retune then begin
    let swapped = ref false in
    while (not !swapped) && !pre_sessions < 100 do
      send ();
      incr pre_sessions;
      match retune_epoch_of_scrape (Tea_serve.Client.scrape addr) with
      | Some e when e >= 1 -> swapped := true
      | _ -> ()
    done;
    gate !swapped "retune jobs %d: daemon never swapped its image" jobs
  end
  else
    for _ = 1 to pre do
      send ();
      incr pre_sessions
    done;
  let ns1, blk1 = Tea_serve.Server.drain_totals srv in
  for _ = 1 to post do
    send ()
  done;
  let ns2, blk2 = Tea_serve.Server.drain_totals srv in
  Tea_serve.Server.stop srv;
  Domain.join driver;
  gate
    (Tea_parallel.Profile.equal
       (Tea_serve.Server.fleet_profile srv)
       (Tea_serve.Server.offline_profile srv))
    "retune jobs %d (%s): fleet profile diverged from sequential offline \
     replay"
    jobs
    (if retune then "retune" else "baseline");
  let window ns ns' blk blk' =
    float_of_int (ns' - ns) /. float_of_int (max 1 (blk' - blk))
  in
  ( window ns0 ns1 blk0 blk1,
    window ns1 ns2 blk1 blk2,
    !pre_sessions,
    Tea_serve.Server.epoch srv,
    Tea_serve.Server.swap_pause_ns srv )

let run_retune ~smoke =
  let flat, a_starts, b_starts = retune_fixture () in
  (* cold-start mistuning: the daemon boots on the untuned flat image
     with a stale drift reference (yesterday's phase-A profile); the
     profile-aware rebuild can only come from live traffic *)
  let drift_ref =
    let prof =
      Tea_opt.Repack.collect flat a_starts ~len:(Array.length a_starts)
    in
    List.filter
      (fun (_, v) -> v > 0)
      (Array.to_list (Array.mapi (fun i v -> (i, v)) prof.Tea_opt.Repack.visits))
  in
  let warm = retune_session_bytes a_starts in
  let session = retune_session_bytes b_starts in
  let post = if smoke then 3 else 6 in
  progress
    "[bench] retune: phase-shift fixture (image tuned on chain A, traffic \
     on chain B), gating post-swap vs no-retune at %.2fx..."
    retune_floor;
  let rows =
    List.map
      (fun jobs ->
        (* cross-daemon wall-clock noise is the dominant error term, so
           run the daemon pair twice and keep the better round *)
        let round () =
          let pre_r, post_r, pre_sessions, swaps, pause_ns =
            run_retune_daemon ~jobs ~retune:true ~drift_ref ~base:flat
              ~image:flat ~warm ~session ~pre:0 ~post
          in
          let _, post_b, _, _, _ =
            run_retune_daemon ~jobs ~retune:false ~drift_ref ~base:flat
              ~image:flat ~warm ~session ~pre:pre_sessions ~post
          in
          (pre_r, post_r, pre_sessions, swaps, pause_ns, post_b)
        in
        let r1 = round () and r2 = round () in
        let speedup_of (_, post_r, _, _, _, post_b) = post_b /. post_r in
        let pre_r, post_r, pre_sessions, swaps, pause_ns, post_b =
          if speedup_of r1 >= speedup_of r2 then r1 else r2
        in
        let speedup = post_b /. post_r in
        let pause_ms = 1e-6 *. float_of_int pause_ns in
        Printf.printf
          "retune jobs %d  %2d sessions  %d swap(s)  baseline %6.1f \
           ns/block  post-swap %6.1f ns/block  %.2fx  pause %.3f ms\n%!"
          jobs (pre_sessions + post) swaps post_b post_r speedup pause_ms;
        gate
          (swaps >= 1 && pre_r > 0. && post_r > 0. && post_b > 0.
          && pause_ms >= 0.)
          "retune jobs %d: %d swaps, empty measurement window" jobs swaps;
        gate (speedup >= retune_floor)
          "retune jobs %d: post-swap speedup %.3fx below the %.2fx floor — \
           the hot swap did not pay for itself"
          jobs speedup retune_floor;
        Obj
          [ ("jobs", Int jobs); ("sessions", Int (pre_sessions + post));
            ("swaps", Int swaps); ("baseline_ns_per_block", f2 post_b);
            ("pre_swap_ns_per_block", f2 pre_r);
            ("post_swap_ns_per_block", f2 post_r); ("speedup_post", f3 speedup);
            ("swap_pause_ms", f3 pause_ms) ])
      (if smoke then [ 1 ] else [ 1; 2 ])
  in
  write "retune" ~smoke
    [ ( "gate",
        Str
          (Printf.sprintf
             "fleet == offline across the swap; post-swap throughput >= \
              %.2fx the no-retune daemon"
             retune_floor) );
      ("floor", f2 retune_floor);
      ("rows", Arr rows) ]

(* ---- observability plane: the BENCH_observe.json trajectory ----

   Two measurements. (1) Dispatch-tier profiler cost on the packed replay
   of micro:listscan's stream, per engine tier (flat, repacked,
   repacked+fused): a disabled series and an enabled series, sampled
   interleaved so machine drift hits both, with the enabled run's hard
   gate that the tier counters sum exactly to the blocks replayed —
   attribution is total, never sampled-ish. (2) Scrape latency against a
   live daemon: sessions stream while tea_serve answers exposition
   scrapes; each scrape is timed round-trip and the exposition format is
   checked line by line. Overhead numbers are machine-dependent and
   reported, not gated (`bench telemetry` gates the disabled path). *)

let observe_engine ~name fx img =
  let len = fx.len in
  let reps = reps_for ~budget:2_000_000 len in
  let sample =
    repeat reps (fun () -> ignore (replay fx (Tea_core.Packed.dup img)))
  in
  let d, e =
    interleaved ~rounds:5 sample (fun () ->
        Tea_core.Tierstat.install ();
        let e = sample () in
        ignore (Tea_core.Tierstat.uninstall ());
        e)
  in
  (* one final instrumented replay whose snapshot we keep for the gate
     and the report (per-run counts, not accumulated) *)
  Tea_core.Tierstat.install ();
  ignore (replay fx (Tea_core.Packed.dup img));
  let snap = Tea_core.Tierstat.uninstall () in
  gate
    (Tea_core.Tierstat.total snap = len)
    "%s: tier counters sum to %d, expected %d blocks — dispatch attribution \
     is not total"
    name (Tea_core.Tierstat.total snap) len;
  let d = ns_per ~reps len d and e = ns_per ~reps len e in
  gate (len > 0 && d > 0. && e > 0.) "%s: empty stream or 0 ns replay" name;
  let overhead = 100.0 *. ((e /. d) -. 1.0) in
  Printf.printf
    "%-9s tierstat off %6.1f ns/block, on %6.1f ns/block (+%.1f%%)  [tier \
     sum == %d blocks]\n%!"
    name d e overhead len;
  let tier t = snap.Tea_core.Tierstat.ts_totals.(t) in
  ( Obj
      [ ("name", Str name); ("blocks", Int len); ("disabled_ns_per_block", f2 d);
        ("enabled_ns_per_block", f2 e); ("overhead_pct", f2 overhead);
        ( "tiers",
          Obj
            (List.init Tea_core.Tierstat.n_tiers (fun t ->
                 (Tea_core.Tierstat.tier_name t, Int (tier t)))) ) ],
    tier )

(* One exposition line: a "# TYPE" comment or [name{k="v",...} value]. *)
let exposition_line =
  Str.regexp
    {|^\(# TYPE .*\|[a-zA-Z_:][a-zA-Z0-9_:]*\({[a-zA-Z0-9_]+="[^"]*"\(,[a-zA-Z0-9_]+="[^"]*"\)*}\)? -?[0-9.+eE]+\(Inf\)?\)$|}

let observe_scrape ~jobs ~n_scrapes image streams =
  let sock = Filename.temp_file "tea_bench_observe" ".sock" in
  Sys.remove sock;
  let srv =
    Tea_serve.Server.create ~jobs ~image (Tea_serve.Frame.Unix_sock sock)
  in
  Fun.protect ~finally:(fun () -> Tea_serve.Server.close srv) @@ fun () ->
  let addr = Tea_serve.Server.addr srv in
  let driver = Domain.spawn (fun () -> Tea_serve.Server.run srv) in
  let clients =
    List.map
      (fun s ->
        Domain.spawn (fun () ->
            ignore (Tea_serve.Client.replay_string ~chunk:8192 addr s)))
      streams
  in
  (* scrape while the fleet is streaming: time each round trip *)
  let times, texts =
    List.split
      (List.init n_scrapes (fun _ ->
           let text, dt = time (fun () -> Tea_serve.Client.scrape addr) in
           (dt, text)))
  in
  List.iter Domain.join clients;
  (* one more scrape once every session completed, so the session
     histograms are in it *)
  let final = Tea_serve.Client.scrape addr in
  Tea_serve.Server.stop srv;
  Domain.join driver;
  let lines text = String.split_on_char '\n' (String.trim text) in
  let bad =
    List.concat_map
      (fun t ->
        List.filter (fun l -> not (Str.string_match exposition_line l 0)) (lines t))
      (final :: texts)
  in
  gate (bad = []) "malformed exposition line %S"
    (match bad with l :: _ -> l | [] -> "");
  let has p = List.exists (String.starts_with ~prefix:p) (lines final) in
  List.iter
    (fun fam -> gate (has ("# TYPE " ^ fam ^ " ")) "scrape lacks family %s" fam)
    [ "tea_counter"; "tea_histogram"; "tea_dispatch_tier_total" ];
  gate (has "tea_histogram_quantile") "scrape has no quantile rows";
  List.iter
    (fun t ->
      let tier = Tea_core.Tierstat.tier_name t in
      gate
        (has (Printf.sprintf "tea_dispatch_tier_total{tier=%S}" tier))
        "scrape lacks the %s tier" tier)
    (List.init Tea_core.Tierstat.n_tiers Fun.id);
  let best = List.fold_left min infinity times in
  let mean = List.fold_left ( +. ) 0.0 times /. float_of_int n_scrapes in
  gate (best > 0.) "scrape timed at 0 us";
  (String.length (List.nth texts (n_scrapes - 1)), 1e6 *. best, 1e6 *. mean)

let run_observe ~smoke =
  let fx = prepare ~keep_trace:true "micro:listscan" in
  progress
    "[bench] observe: %d blocks from micro:listscan; tier-profiler overhead \
     per engine, then live scrape latency..."
    fx.len;
  (* listscan never fuses a chain, so the fused tier would stay silent;
     a fourth row replays micro:nested (whose inner loop fuses at ~97%
     of steps) on its own tuned image to exercise that tier too *)
  let loop = prepare "micro:nested" in
  let rows, tiers =
    List.split
      (List.map
         (fun (name, fx, img) -> observe_engine ~name fx (Lazy.force img))
         [ ("flat", fx, lazy fx.flat); ("repack", fx, fx.repacked);
           ("fuse", fx, fx.fused); ("fuse-loop", loop, loop.fused) ])
  in
  gate
    (List.nth tiers 1 Tea_core.Tierstat.t_ic > 0)
    "repacked replay never hit the inline cache";
  gate
    (List.nth tiers 3 Tea_core.Tierstat.t_fused > 0)
    "fuse-loop replay attributed no blocks to the fused tier";
  let sessions = if smoke then 4 else 8 and n_scrapes = 32 in
  let bytes, best_us, mean_us =
    observe_scrape ~jobs:2 ~n_scrapes fx.flat
      (List.init sessions (fun _ -> fx.trace))
  in
  Printf.printf
    "scrape: %d scrapes against %d streaming sessions, %d bytes exposition, \
     best %.0f us, mean %.0f us\n"
    n_scrapes sessions bytes best_us mean_us;
  write "observe" ~smoke
    [ ( "gate",
        Str
          "tier counters sum to blocks replayed; exposition carries \
           tier/counter families" );
      ("engines", Arr rows);
      ( "scrape",
        Obj
          [ ("sessions", Int sessions); ("scrapes", Int n_scrapes);
            ("exposition_bytes", Int bytes); ("best_us", Num (1, best_us));
            ("mean_us", Num (1, mean_us)) ] ) ]

(* Same observability surface as tea_tool: --telemetry FILE writes a
   Chrome trace (or JSONL for a .jsonl suffix), --metrics dumps the probe
   counters after the run. With neither flag nothing is installed and
   stdout is byte-identical to a probe-free build. *)
let with_obs ~trace_out ~metrics name f =
  if trace_out = None && not metrics then f ()
  else begin
    let sink = Option.map (fun _ -> Tea_telemetry.Span.create ()) trace_out in
    Tea_telemetry.Probe.install ?spans:sink ();
    Fun.protect
      ~finally:(fun () ->
        (match (trace_out, sink) with
        | Some path, Some sink ->
            let out =
              if Filename.check_suffix path ".jsonl" then
                Tea_telemetry.Span.to_jsonl sink
              else Tea_telemetry.Span.to_chrome_json sink
            in
            let oc = open_out path in
            output_string oc out;
            close_out oc
        | _ -> ());
        let snap = Tea_telemetry.Probe.uninstall () in
        if metrics then
          print_string (Tea_report.Stats.render ~title:"telemetry" snap))
      (fun () -> Tea_telemetry.Probe.with_span name f)
  end

(* `--smoke' shrinks any table run to a small benchmark subset — the CI
   smoke target is `main.exe -- table4 --smoke'. *)
let smoke_set = [ "168.wupwise"; "181.mcf"; "253.perlbmk" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let rec parse acc trace_out metrics = function
    | [] -> (List.rev acc, trace_out, metrics)
    | "--telemetry" :: file :: rest -> parse acc (Some file) metrics rest
    | "--metrics" :: rest -> parse acc trace_out true rest
    | ("--quiet" | "-q") :: rest ->
        quiet := true;
        parse acc trace_out metrics rest
    | "--smoke" :: rest -> parse acc trace_out metrics rest
    | a :: rest -> parse (a :: acc) trace_out metrics rest
  in
  let args, trace_out, metrics = parse [] None false args in
  let table_benchmarks =
    if smoke then smoke_set else Tea_workloads.Spec2000.names
  in
  let root = "bench." ^ match args with [] -> "all" | a :: _ -> a in
  let dispatch () =
    match args with
    | [ "micro" ] -> run_micro ()
    | [ "repack" ] -> run_repack ~smoke
    | [ "fuse" ] -> run_fuse ~smoke
    | [ "compile" ] -> run_compile ~smoke
    | [ "scenario" ] -> run_scenario ~smoke
    | [ "retune" ] -> run_retune ~smoke
    | [ "observe" ] -> run_observe ~smoke
    | [ "parallel" ] ->
        run_parallel_compare ~smoke ~benchmarks:table_benchmarks
    | [ "quick" ] -> run_tables ~benchmarks:quick_set ~which:[]
    | [ "ablation" ] -> run_ablations ()
    | [ "extensions" ] -> run_extensions ()
    | [] ->
        run_tables ~benchmarks:table_benchmarks ~which:[];
        print_newline ();
        run_ablations ();
        print_newline ();
        run_extensions ()
    | which
      when List.for_all
             (fun a -> String.length a > 5 && String.sub a 0 5 = "table")
             which ->
        run_tables ~benchmarks:table_benchmarks ~which
    | _ ->
        prerr_endline
          "usage: main.exe [quick | micro | repack | fuse | compile | \
           scenario | retune | observe | parallel | telemetry | ablation | \
           extensions | table1 table2 table3 table4] [--smoke] [--telemetry \
           FILE] [--metrics] [--quiet]";
        exit 2
  in
  match args with
  | [ "telemetry" ] ->
      (* installs/uninstalls the probe set itself — not wrapped in
         [with_obs], which would double-install *)
      run_telemetry ~smoke
  | _ -> with_obs ~trace_out ~metrics root dispatch
