(* The decode / dispatch / staging split on flat packed MRET images, the
   configuration of the ROADMAP's first open item, so its figures can be
   checked against committed numbers:

     dune exec perfbench/split.exe -- DIR

   For listscan, mcf, gzip and twolf it captures the block stream into
   DIR, re-encodes it as a two-asid PCTR3 stream, and prints ns/block
   (median of 5) for: PCTR2 decode alone, PCTR3 event fold alone,
   [feed_run] on pre-decoded arrays, the same blocks through
   [Multi_replayer.feeder_block], and end-to-end [replay_packed] (v2) and
   [Multi_replayer.replay_events] (v3). *)

module Core = Tea_core

let workloads =
  [
    ("micro:listscan", fun () -> Tea_workloads.Micro.list_scan ());
    ("181.mcf", fun () -> Perfbench.Gen.program "181.mcf");
    ("164.gzip", fun () -> Perfbench.Gen.program "164.gzip");
    ("300.twolf", fun () -> Perfbench.Gen.program "300.twolf");
  ]

let ns_per_block blocks f =
  Perfbench.Quantile.median
    (List.init 5 (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (f ()));
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int blocks))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  Printf.printf "%-16s %8s %8s %8s %8s %8s %8s\n" "workload" "decode2" "fold3"
    "feed_run" "feeder" "e2e_v2" "e2e_v3";
  List.iter
    (fun (name, program) ->
      let image = program () in
      let v2 = Filename.concat dir "split.pctr" and v3 = Filename.concat dir "split3.pctr" in
      ignore (Tea_pinsim.Trace_capture.record image v2);
      let s = Perfbench.Gen.load v2 in
      Perfbench.Gen.write_slice v3 ~v3:true s ~off:0 ~len:s.Perfbench.Gen.len;
      let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
      let r = Tea_dbt.Stardbt.record ~strategy image in
      let flat =
        Core.Packed.freeze
          (Core.Builder.build (Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set))
      in
      let n = s.Perfbench.Gen.len in
      let fresh () = Core.Replayer.create_packed (Core.Packed.dup flat) in
      let decode2 = ns_per_block n (fun () -> Core.Pc_trace.fold v2 0 (fun k ~start:_ ~insns:_ -> k + 1)) in
      let fold3 = ns_per_block n (fun () -> Core.Pc_trace.fold_events v3 0 (fun k ~asid:_ _ -> k + 1)) in
      let feed_run =
        ns_per_block n (fun () ->
            Core.Replayer.feed_run (fresh ()) ~insns:s.Perfbench.Gen.insns
              s.Perfbench.Gen.starts ~len:n)
      in
      let feeder =
        ns_per_block n (fun () ->
            let f = Core.Multi_replayer.feeder (Core.Multi_replayer.create (fun _ -> fresh ())) in
            for i = 0 to n - 1 do
              Core.Multi_replayer.feeder_block f ~asid:0
                ~start:s.Perfbench.Gen.starts.(i) ~insns:s.Perfbench.Gen.insns.(i)
            done;
            Core.Multi_replayer.feeder_flush f)
      in
      let e2e2 = ns_per_block n (fun () -> Core.Pc_trace.replay_packed (Core.Packed.dup flat) v2) in
      let e2e3 = ns_per_block n (fun () -> Core.Multi_replayer.replay_events (fun _ -> fresh ()) v3) in
      Printf.printf "%-16s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n%!" name decode2 fold3
        feed_run feeder e2e2 e2e3;
      Sys.remove v2;
      Sys.remove v3)
    workloads
