(* Process-level measurements and the result line. *)

let now = Unix.gettimeofday

(* Process high-water resident set, MiB (Linux /proc; the OCaml heap's
   high-water mark elsewhere). *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ()
        in
        go ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* Words allocated so far (minor + directly-major, promotions not double
   counted), all domains that have flushed their counters. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Words [f] allocates per block of a [blocks]-block input. *)
let alloc_per_block blocks f =
  let a0 = alloc_words () in
  ignore (Sys.opaque_identity (f ()));
  (alloc_words () -. a0) /. float_of_int blocks

(* The ledger: the share of the untraced per-block cost that the traced
   layer calls do not account for (negative when the layers, as called
   from outside, cost more than the operation they recompose). *)
let unattributed ~layers_s ~blocks ~untraced_ns =
  1.0 -. (layers_s *. 1e9 /. blocks /. untraced_ns)

let overhead_pct ~traced_ns ~untraced_ns =
  (traced_ns -. untraced_ns) /. untraced_ns *. 100.0

let tier_fracs (s : Tea_core.Tierstat.snapshot) =
  let module T = Tea_core.Tierstat in
  let total = float_of_int (max 1 (T.total s)) in
  let frac t = float_of_int s.T.ts_totals.(t) /. total in
  [
    ("tierstat.compiled_frac", frac T.t_compiled);
    ("tierstat.fused_frac", frac T.t_fused);
    ("tierstat.hash_frac", frac T.t_hash);
    ("tierstat.miss_frac", frac T.t_miss);
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back as the same float; never NaN/inf in
   JSON. *)
let json_float f =
  if not (Float.is_finite f) then "0"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

type stamp = {
  host : string;
  nproc : int;
  commit : string;
  ocaml : string;
  flambda : string;
  seed : int;
  workload : string;
  trace : bool;
  seconds : int;
}

let stamp_json s =
  Printf.sprintf
    "{\"stamp\": {\"host\": %s, \"nproc\": %d, \"commit\": %s, \"ocaml\": %s, \
     \"flambda\": %s, \"seed\": %d, \"workload\": %s, \"trace\": %b, \
     \"seconds\": %d}}"
    (json_string s.host) s.nproc (json_string s.commit)
    (json_string s.ocaml) (json_string s.flambda) s.seed (json_string s.workload) s.trace
    s.seconds

(* The result line: exactly [specs], in order, each with its unit. A name
   missing from [values] is a bug in the benchmark, not a measurement. *)
let result_json (tally : Tally.t) (specs : Metrics.spec list) values =
  let metric (s : Metrics.spec) =
    match List.assoc_opt s.Metrics.name values with
    | Some v ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (json_string s.Metrics.name) (json_float v) (json_string s.Metrics.unit)
    | None -> failwith ("metric not measured: " ^ s.Metrics.name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Tally.correct tally) tally.Tally.attempted tally.Tally.failed
    (String.concat ", " (List.map metric specs))
