(* Input synthesis. Everything the system under test receives is made
   here, before any timing starts, as PC-trace bytes: the seed picks the
   slices, formats and schedules, and the same seed always yields the
   same bytes. *)

module Pc_trace = Tea_core.Pc_trace
module Splitmix = Tea_util.Splitmix
module Scenario = Tea_workloads.Scenario

type stream = { starts : int array; insns : int array; len : int }

let program name =
  match Tea_workloads.Spec2000.by_name name with
  | Some p -> Tea_workloads.Spec2000.image p
  | None -> invalid_arg ("Gen.program: unknown workload " ^ name)

(* Run the workload under the Pin-policy frontend and write its block
   stream as a PCTR2 file — what [tea_tool capture] produces. *)
let capture ~dir name =
  let path = Filename.concat dir (name ^ ".pctr") in
  ignore (Tea_pinsim.Trace_capture.record (program name) path);
  path

let load path =
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  { starts; insns; len }

let read path = Pc_trace.read_all path

(* ---- serve-fleet sessions ---- *)

type session = {
  v3 : bool;  (* PCTR3 re-encoding over two asids, else PCTR2 *)
  off : int;  (* first block of the slice in the source stream *)
  blocks : int;
  bytes : string;  (* the PC-trace file *)
  wire : string;  (* the same bytes as client frames, end frame included *)
}

(* Asids alternate every [asid_period] blocks in a PCTR3 session. *)
let asid_period = 64

(* Client frame size: [Tea_serve.Client]'s default chunk. *)
let frame_bytes = 65536

(* Blocks [off, off + len) of [s], read cyclically. *)
let write_slice path ~v3 (s : stream) ~off ~len =
  let w =
    Pc_trace.open_writer ~format:(if v3 then Pc_trace.V3 else Pc_trace.V2) path
  in
  let cur = ref 0 in
  for i = 0 to len - 1 do
    if v3 then begin
      let asid = i / asid_period mod 2 in
      if asid <> !cur then begin
        Pc_trace.switch_asid w asid;
        cur := asid
      end
    end;
    let j = (off + i) mod s.len in
    Pc_trace.write w ~start:s.starts.(j) ~insns:s.insns.(j)
  done;
  Pc_trace.close_writer w

let frames bytes =
  let b = Buffer.create (String.length bytes + 64) in
  let n = String.length bytes in
  let off = ref 0 in
  while !off < n do
    let k = min frame_bytes (n - !off) in
    Buffer.add_string b
      (Tea_serve.Frame.encode Tea_serve.Frame.tag_data (String.sub bytes !off k));
    off := !off + k
  done;
  Buffer.add_string b (Tea_serve.Frame.encode Tea_serve.Frame.tag_end "");
  Buffer.contents b

(* [sizes] slice lengths, log-spaced with ratio [hi / lo] and scaled so
   they sum to [total]. *)
let size_grid ~sizes ~lo ~hi ~total =
  let raw =
    List.init sizes (fun k ->
        let f = if sizes = 1 then 0.0 else float_of_int k /. float_of_int (sizes - 1) in
        float_of_int lo *. ((float_of_int hi /. float_of_int lo) ** f))
  in
  let scale = float_of_int total /. List.fold_left ( +. ) 0.0 raw in
  let grid = List.map (fun x -> max 1 (int_of_float (x *. scale))) raw in
  (* rounding slack goes to the largest slice *)
  let slack = total - List.fold_left ( + ) 0 grid in
  List.mapi (fun k x -> if k = sizes - 1 then x + slack else x) grid

(* The session pool: the stream cut into [sizes] slices of log-spaced
   lengths that tile it exactly once, laid around it (cyclically) in a
   seeded order from a seeded offset; each slice is sent both as PCTR2 and
   as a two-asid PCTR3 re-encoding. Because the slices tile the stream,
   every seed replays the same blocks in aggregate — the seed moves only
   the seams, the slice order and the send order — so the pool's cost
   does not depend on which part of the stream a seed happened to pick. *)
let fleet_sessions ~seed ~dir ?(sizes = 24) ?(lo = 2_000) ?(hi = 200_000)
    (s : stream) =
  let g = Splitmix.create seed in
  let grid = Array.of_list (size_grid ~sizes ~lo ~hi ~total:s.len) in
  Splitmix.shuffle g grid;
  let off = ref (Splitmix.int g s.len) in
  Array.to_list grid
  |> List.concat_map (fun len ->
         let o = !off in
         off := (o + len) mod s.len;
         [ (o, len, false); (o, len, true) ])
  |> List.mapi (fun i (off, len, v3) ->
         let path = Filename.concat dir (Printf.sprintf "session%03d.pctr" i) in
         write_slice path ~v3 s ~off ~len;
         let bytes = read path in
         Sys.remove path;
         { v3; off; blocks = len; bytes; wire = frames bytes })
  |> Array.of_list

(* The order operations draw sessions in: back-to-back seeded
   permutations of [0, n). *)
let order ~seed n =
  let g = Splitmix.create (seed lxor 0x5eed) in
  let perm = Array.init n Fun.id in
  let pos = ref n in
  fun () ->
    if !pos = n then begin
      Splitmix.shuffle g perm;
      pos := 0
    end;
    let i = perm.(!pos) in
    incr pos;
    i

(* ---- offline-churn scenario ---- *)

(* Fusion-dominated (gzip, bzip2) and branchy bases, each its own asid. *)
let churn_bases =
  [
    "164.gzip"; "256.bzip2"; "176.gcc"; "254.gap"; "253.perlbmk"; "186.crafty";
    "175.vpr"; "197.parser";
  ]

let churn_window = 40_000
let churn_quantum = 32
let churn_interrupt_every = 2048
let churn_smc_every = 8192

(* A seeded random-schedule interleave of [streams] in quanta of up to
   [churn_quantum] blocks, with an interrupt cutting the running asid every
   [churn_interrupt_every] blocks and a self-modifying-code invalidation
   of a seeded asid every [churn_smc_every] blocks. *)
let churn_scenario ~seed (streams : Scenario.stream list) emit =
  let g = Splitmix.create seed in
  let sched = Int64.to_int (Splitmix.next g) land max_int in
  let asids = Array.of_list (List.map (fun s -> s.Scenario.asid) streams) in
  let n = ref 0 in
  let hazard ev =
    emit ev;
    match ev with
    | Pc_trace.Block _ ->
        incr n;
        if !n mod churn_interrupt_every = 0 then emit Pc_trace.Interrupt;
        if !n mod churn_smc_every = 0 then
          emit
            (Pc_trace.Invalidate
               { asid = asids.(Splitmix.int g (Array.length asids)) })
    | _ -> ()
  in
  Scenario.interleave ~quantum:churn_quantum
    ~schedule:(Scenario.Random_sched sched) streams hazard

let churn_streams windows =
  List.mapi
    (fun asid (name, (s : stream)) ->
      Scenario.stream ~asid ~name ~starts:s.starts ~insns:s.insns
        ~len:(min churn_window s.len))
    windows

let write_churn ~seed ~path streams =
  ignore (Scenario.write_file path (churn_scenario ~seed streams))
