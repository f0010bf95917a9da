(* Golden regression values: the whole pipeline is deterministic (seeded
   workload synthesis, no wall clock anywhere in the measurement path), so
   these exact numbers must reproduce on every run and every machine. Any
   change here means an intentional behaviour change in the workload
   generator, a recorder, the cost models or the accounting — update the
   goldens together with EXPERIMENTS.md when that happens. *)

let check = Alcotest.check

(* (dyn instrs, native cycles, mret traces, DBT bytes, TEA bytes,
   replay total cycles) *)
let goldens =
  [
    ("168.wupwise", (1809950, 3801009, 21, 3851, 525, 40977808));
    ("164.gzip", (3304839, 5473176, 38, 12746, 2249, 66840346));
    ("181.mcf", (4066096, 11987674, 30, 4200, 766, 158753249));
    ("253.perlbmk", (1357845, 3309323, 41, 8820, 1766, 44174136));
  ]

let mret = Option.get (Tea_traces.Registry.by_name "mret")

let measure name =
  let p = Option.get (Tea_workloads.Spec2000.by_name name) in
  let img = Tea_workloads.Spec2000.image p in
  let m, _ = Tea_machine.Interp.run img in
  let r = Tea_dbt.Stardbt.record ~strategy:mret img in
  let set = r.Tea_dbt.Stardbt.set in
  let auto = Tea_core.Builder.of_set set in
  let rep, _ =
    Tea_pinsim.Pintool_replay.replay ~traces:(Tea_traces.Trace_set.to_list set) img
  in
  ( Tea_machine.Interp.dyn_instrs m,
    Tea_machine.Interp.cycles m,
    Tea_traces.Trace_set.n_traces set,
    Tea_traces.Trace_set.dbt_bytes set img,
    Tea_core.Automaton.byte_size auto,
    rep.Tea_pinsim.Pintool_replay.total_cycles )

let test_golden (name, expected) () =
  let dyn, cyc, traces, dbt, tea, replay = measure name in
  let edyn, ecyc, etraces, edbt, etea, ereplay = expected in
  check Alcotest.int (name ^ " dynamic instructions") edyn dyn;
  check Alcotest.int (name ^ " native cycles") ecyc cyc;
  check Alcotest.int (name ^ " mret traces") etraces traces;
  check Alcotest.int (name ^ " DBT bytes") edbt dbt;
  check Alcotest.int (name ^ " TEA bytes") etea tea;
  check Alcotest.int (name ^ " replay cycles") ereplay replay

(* ---------------- Golden files ---------------- *)

(* Byte-for-byte frozen artifacts under test/goldens/: DOT renderings of
   three micro-workload automata and the Table 1 / Table 4 ASCII reports
   for a three-benchmark subset. Regenerate intentionally with

     TEA_GOLDEN_UPDATE=$PWD/test/goldens dune exec test/test_goldens.exe

   which rewrites the files in the source tree instead of comparing. *)

let micro_automaton image =
  let r = Tea_dbt.Stardbt.record ~strategy:mret image in
  Tea_core.Builder.of_set r.Tea_dbt.Stardbt.set

let test_dot_golden (file, title, image) () =
  Support.check_golden_file file
    (Tea_core.Dot.of_automaton ~title (micro_automaton (image ())))

let dot_goldens =
  [
    ("listscan.dot", "listscan", fun () -> Tea_workloads.Micro.list_scan ());
    ("branchy.dot", "branchy", fun () -> Tea_workloads.Micro.branchy_loop ());
    ("copy.dot", "copy", fun () -> Tea_workloads.Micro.copy_loop ());
  ]

let table_benchmarks = [ "168.wupwise"; "181.mcf"; "253.perlbmk" ]

let test_table_goldens () =
  let benches =
    Tea_report.Experiments.prepare ~benchmarks:table_benchmarks ()
  in
  Support.check_golden_file "table1.txt"
    (Tea_report.Experiments.render_table1
       (Tea_report.Experiments.table1 benches));
  Support.check_golden_file "table4.txt"
    (Tea_report.Experiments.render_table4
       (Tea_report.Experiments.table4 benches))

let () =
  Alcotest.run "tea_goldens"
    [
      ( "pipeline",
        List.map
          (fun ((name, _) as g) -> Alcotest.test_case name `Slow (test_golden g))
          goldens );
      ( "files",
        List.map
          (fun ((file, _, _) as g) ->
            Alcotest.test_case file `Quick (test_dot_golden g))
          dot_goldens
        @ [ Alcotest.test_case "tables" `Slow test_table_goldens ] );
    ]
