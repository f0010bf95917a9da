(* Shared plumbing for the bench trajectory modes: a typed JSON document
   written to BENCH_<mode>.json with a host/commit stamp, best-of-N
   timing, the exit-1 gate, and the record -> freeze -> capture fixture
   the replay modes start from. *)

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- gates ---- *)

(* A failed gate is a bug, not a tuning miss: report it and exit 1. *)
let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("[bench] ERROR: " ^ msg);
        exit 1
      end)
    fmt

(* ---- JSON ---- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Int of int
  | Num of int * float  (** a float printed with this many decimals *)
  | Str of string
  | Bool of bool

let f2 x = Num (2, x)
let f3 x = Num (3, x)
let f4 x = Num (4, x)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The top-level object and arrays of rows are laid out one member per
   line, everything deeper inline, so a row reads on one line. *)
let rec emit b depth = function
  | Int i -> Printf.bprintf b "%d" i
  | Num (d, x) ->
      if Float.is_finite x then Printf.bprintf b "%.*f" d x
      else Buffer.add_string b "null"
  | Str s -> add_string b s
  | Bool v -> Printf.bprintf b "%b" v
  | Obj kvs ->
      members b depth "{" "}" (depth = 0)
        (List.map (fun (k, v) -> (Some k, v)) kvs)
  | Arr xs ->
      let rows =
        depth = 1 && List.exists (function Obj _ -> true | _ -> false) xs
      in
      members b depth "[" "]" rows (List.map (fun v -> (None, v)) xs)

and members b depth opn cls tall items =
  let line d = "\n" ^ String.make (2 * d) ' ' in
  Buffer.add_string b opn;
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b (if tall then "," else ", ");
      if tall then Buffer.add_string b (line (depth + 1));
      Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") k;
      emit b (depth + 1) v)
    items;
  if tall && items <> [] then Buffer.add_string b (line depth);
  Buffer.add_string b cls

(* The commit as perfbench/run.py resolves it: git first, then
   $BENCH_COMMIT (a checkout without .git), else "unknown". Git runs in
   the directory of the executable, which dune builds under the
   checkout's _build, so a run from a scratch directory still stamps
   the checkout's commit. *)
let commit () =
  let dir = Filename.dirname Sys.executable_name in
  let git =
    try
      let ic =
        Unix.open_process_in
          (Printf.sprintf "git -C %s rev-parse HEAD 2>/dev/null"
             (Filename.quote dir))
      in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  match git with
  | Some c -> c
  | None -> Option.value (Sys.getenv_opt "BENCH_COMMIT") ~default:"unknown"

let stamp () =
  Obj
    [ ("host", Str (Unix.gethostname ()));
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("commit", Str (commit ()));
      ("ocaml", Str Sys.ocaml_version) ]

(* Writes BENCH_<mode>.json: bench, smoke and stamp, then [fields]. *)
let write mode ~smoke fields =
  let file = "BENCH_" ^ mode ^ ".json" in
  let b = Buffer.create 4096 in
  emit b 0
    (Obj
       ([ ("bench", Str mode); ("smoke", Bool smoke); ("stamp", stamp ()) ]
       @ fields));
  Buffer.add_char b '\n';
  let oc = open_out file in
  Buffer.output_buffer oc b;
  close_out oc;
  progress "[bench] wrote %s" file

(* ---- timing ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Wall time of [reps] back-to-back calls: one replay of a short stream
   is microseconds, far below timer resolution. *)
let repeat reps f () =
  snd (time (fun () -> for _ = 1 to reps do f () done))

(* [reps] so one sample covers about [budget] blocks. *)
let reps_for ~budget n = 1 + (budget / max 1 n)

let ns_per ~reps n dt = 1e9 *. dt /. float_of_int (reps * max 1 n)

(* The best of [rounds] samples after [warmup] discarded ones. *)
let best_of ?(warmup = 1) ~rounds sample =
  let best = ref infinity in
  for round = 1 to warmup + rounds do
    let dt = sample () in
    if round > warmup && dt < !best then best := dt
  done;
  !best

(* Two series sampled alternately (a, then b, each round) so slow machine
   drift hits both equally; the best of each. *)
let interleaved ?(warmup = 1) ~rounds a b =
  let best_a = ref infinity and best_b = ref infinity in
  for round = 1 to warmup + rounds do
    let x = a () in
    let y = b () in
    if round > warmup then begin
      if x < !best_a then best_a := x;
      if y < !best_b then best_b := y
    end
  done;
  (!best_a, !best_b)

(* ---- the replay fixture ---- *)

let micro_set =
  [
    ("micro:listscan", fun () -> Tea_workloads.Micro.list_scan ());
    ("micro:copy", fun () -> Tea_workloads.Micro.copy_loop ());
    ("micro:nested", fun () -> Tea_workloads.Micro.nested_loop ());
    ("micro:branchy", fun () -> Tea_workloads.Micro.branchy_loop ());
  ]

let workload_image name =
  match List.assoc_opt name micro_set with
  | Some f -> f ()
  | None -> (
      match Tea_workloads.Spec2000.by_name name with
      | Some p -> Tea_workloads.Spec2000.image p
      | None -> invalid_arg ("bench: unknown workload " ^ name))

type fixture = {
  auto : Tea_core.Automaton.t;
  flat : Tea_core.Packed.t;
  starts : int array;
  insns : int array;
  len : int;
  trace : string;  (** the captured PCTR bytes, when asked for *)
  repacked : Tea_core.Packed.t Lazy.t;  (** profile-guided on [starts] *)
  fused : Tea_core.Packed.t Lazy.t;
      (** [repacked], fused on its own profile of [starts] *)
}

(* Record traces with [strategy] under the DBT, freeze, capture the PC
   stream once and decode it; the tuned images are built on first use. *)
let prepare ?(strategy = "mret") ?(keep_trace = false) name =
  let image = workload_image name in
  let strategy = Option.get (Tea_traces.Registry.by_name strategy) in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let auto =
    Tea_core.Builder.build (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
  in
  let flat = Tea_core.Packed.freeze auto in
  let path = Filename.temp_file "tea_bench" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Tea_pinsim.Trace_capture.record image path);
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  let trace = if keep_trace then Tea_core.Pc_trace.read_all path else "" in
  let collect img = Tea_opt.Repack.collect img starts ~len in
  let repacked = lazy (Tea_opt.Repack.repack flat (collect flat)) in
  let fused =
    lazy
      (let r = Lazy.force repacked in
       Tea_opt.Fuse.fuse ~profile:(collect r) r)
  in
  { auto; flat; starts; insns; len; trace; repacked; fused }

(* One packed replay of the fixture's whole stream over [img]. *)
let replay fx img =
  let rep = Tea_core.Replayer.create_packed img in
  Tea_core.Replayer.feed_run rep ~insns:fx.insns fx.starts ~len:fx.len;
  rep
