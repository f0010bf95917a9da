(* Workload name -> ready image: record traces under the StarDBT policy,
   build the TEA, freeze it, repack and fuse it on the workload's own
   block stream, compile it. Each phase is timed; [setup_s] is this path
   and nothing else (input synthesis and correctness references are
   outside it). *)

module Core = Tea_core

type image = {
  base : string;  (* SPEC-like workload the image was built from *)
  auto : Core.Automaton.t;  (* the TEA, for the reference engine *)
  tuned : Core.Packed.t;  (* repacked then fused on its own stream *)
  compiled : Core.Compiled.t;  (* compiled over a private dup of [tuned] *)
}

let phases = [ "record"; "build"; "freeze"; "repack"; "fuse"; "compile" ]

let image ?tr ~times name (s : Gen.stream) ~len =
  let phase p f =
    let t0 = Unix.gettimeofday () in
    let v =
      match tr with None -> f () | Some t -> Spans.span t ("setup." ^ p) f
    in
    Hashtbl.replace times p
      (Unix.gettimeofday () -. t0
      +. Option.value (Hashtbl.find_opt times p) ~default:0.0);
    v
  in
  let program = Gen.program name in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let traces =
    phase "record" (fun () ->
        let r = Tea_dbt.Stardbt.record ~strategy program in
        Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set)
  in
  let auto = phase "build" (fun () -> Core.Builder.build traces) in
  let flat = phase "freeze" (fun () -> Core.Packed.freeze auto) in
  let repacked =
    phase "repack" (fun () ->
        Tea_opt.Repack.repack flat
          (Tea_opt.Repack.collect flat s.Gen.starts ~len))
  in
  let tuned =
    phase "fuse" (fun () ->
        Tea_opt.Fuse.fuse
          ~profile:(Tea_opt.Repack.collect repacked s.Gen.starts ~len)
          repacked)
  in
  let compiled =
    phase "compile" (fun () -> Core.Compiled.of_packed (Core.Packed.dup tuned))
  in
  { base = name; auto; tuned; compiled }

type result = {
  images : image list;
  setup_s : float;  (* median over repetitions of the whole path *)
  phase_s : (string * float) list;  (* per phase, median over repetitions *)
}

(* Set up [reps] times from scratch and report medians; the images of the
   last repetition are returned (every repetition builds the same ones). *)
let run ?tr ~reps (inputs : (string * Gen.stream * int) list) =
  let runs =
    List.init reps (fun _ ->
        let times = Hashtbl.create 8 in
        let t0 = Unix.gettimeofday () in
        let images =
          List.map (fun (name, s, len) -> image ?tr ~times name s ~len) inputs
        in
        (Unix.gettimeofday () -. t0, times, images))
  in
  let _, _, images = List.nth runs (reps - 1) in
  {
    images;
    setup_s = Quantile.median (List.map (fun (t, _, _) -> t) runs);
    phase_s =
      List.map
        (fun p ->
          ( p,
            Quantile.median
              (List.map (fun (_, h, _) -> Hashtbl.find h p) runs) ))
        phases;
  }

(* A fresh replayer over a private dup of [img] — what the daemon and the
   sharded path build per asid. *)
let compiled_replayer img =
  Core.Replayer.create_compiled (Core.Compiled.of_packed (Core.Packed.dup img))

let packed_replayer img = Core.Replayer.create_packed (Core.Packed.dup img)

let reference_replayer auto =
  Core.Replayer.create
    (Core.Transition.create Core.Transition.config_global_local auto)
