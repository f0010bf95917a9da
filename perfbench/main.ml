(* perfbench: the bytes-to-profile benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --workdir DIR
              [--commit SHA] [--flambda true|false] [--spans FILE]

   Untraced (--trace 0) it prints every end-to-end metric; traced
   (--trace 1) every per-layer metric. Human-readable lines start with
   '#'; the last line is the JSON result. Exit status is 0 only when every
   checked operation matched its reference. *)

open Perfbench

let workloads = [ "offline-branchy"; "serve-fleet"; "offline-churn" ]

(* Set-up repetitions per run; setup_s is their median. *)
let setup_reps = 3

(* The quantile over windows every timed figure reports. *)
let window_quantile = 0.1

let usage () =
  prerr_endline
    "usage: main.exe --workload offline-branchy|serve-fleet|offline-churn \
     --seed N --seconds S --trace 0|1 --workdir DIR [--commit SHA] [--flambda true|false] [--spans FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 in
  let trace = ref (-1) and dir = ref "" and commit = ref "unknown" in
  let spans_out = ref "" and flambda = ref "unknown" in
  let rec args = function
    | "--workload" :: v :: r -> workload := v; args r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; args r
    | "--seconds" :: v :: r ->
        seconds := Option.value (int_of_string_opt v) ~default:0; args r
    | "--trace" :: v :: r ->
        trace := Option.value (int_of_string_opt v) ~default:(-1); args r
    | "--workdir" :: v :: r -> dir := v; args r
    | "--commit" :: v :: r -> commit := v; args r
    | "--spans" :: v :: r -> spans_out := v; args r
    | "--flambda" :: v :: r -> flambda := v; args r
    | [] -> ()
    | _ -> usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if (not (List.mem !workload workloads)) || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
     || not (Sys.file_exists !dir && Sys.is_directory !dir)
  then usage ();
  let workload = !workload and traced = !trace = 1 and dir = !dir in
  let secs = float_of_int !seconds in
  let stamp =
    {
      Report.host = Unix.gethostname ();
      nproc = Domain.recommended_domain_count ();
      commit = !commit;
      ocaml = Sys.ocaml_version;
      flambda = !flambda;
      seed;
      workload;
      trace = traced;
      seconds = !seconds;
    }
  in
  print_endline (Report.stamp_json stamp);
  let tally = Tally.create () in
  let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!") in
  let tr = if traced then Some (Spans.create ()) else None in
  let e2e ~start ~ops ~(setup : Setup.result) ~sim ~rss =
    let ns, p50, p90 =
      if ops = [] then (0.0, 0.0, 0.0)
      else begin
        (* Every figure is the lower decile over up to 50 consecutive
           windows of at least 10 operations each. The shared host slows
           whole stretches of seconds; this reads the code's cost outside
           them, so a slowdown that spares one window in ten leaves it
           unmoved. *)
        let w = Quantile.windowed ~max_windows:50 ~min_ops:10 ~start ops in
        let low f = Quantile.percentile window_quantile (List.map f w) in
        let wns = List.map (fun (x, _, _) -> x) w in
        say "operations timed: %d; figures are the lower decile of %d windows"
          (List.length ops) (List.length w);
        say "ns/block by window: %s"
          (String.concat " " (List.map (Printf.sprintf "%.1f") wns));
        say "ns/block over windows: median %.1f, whole phase %.1f"
          (Quantile.median wns)
          (let t = List.fold_left (fun m (_, t, _) -> Float.max m t) start ops in
           (t -. start) *. 1e9
           /. float_of_int (List.fold_left (fun a (_, _, b) -> a + b) 0 ops));
        (low (fun (x, _, _) -> x), low (fun (_, x, _) -> x), low (fun (_, _, x) -> x))
      end
    in
    [
      ("ns_per_block", ns);
      ("latency_ms_p50", p50);
      ("latency_ms_p90", p90);
      ("setup_s", setup.Setup.setup_s);
      ("sim_cycles_per_block", sim);
      ("peak_rss_mb", rss);
    ]
  in
  let setup_layers (setup : Setup.result) ~images =
    List.map
      (fun (p, s) ->
        if p = "record" then ("setup.record_s", s)
        else if p = "compile" then ("setup.compile_ms", s *. 1e3 /. float_of_int images)
        else ("setup." ^ p ^ "_ms", s *. 1e3))
      setup.Setup.phase_s
  in
  let report_setup (setup : Setup.result) =
    say "setup: %.3f s (median of %d), %d image(s)" setup.Setup.setup_s setup_reps
      (List.length setup.Setup.images)
  in
  (* Called between preparation (inputs, set-up, references) and timing:
     the timed phase starts from a compacted heap, so garbage left by
     preparation neither inflates its collections nor its memory. *)
  let ready () =
    Gc.compact ();
    say "peak RSS after preparation: %.1f MiB" (Report.peak_rss_mb ())
  in
  let values, spans =
    match workload with
    | "offline-branchy" ->
        let c, setup = Offline.prepare ~dir ~reps:setup_reps ?tr () in
        report_setup setup;
        say "input: %s capture, %d blocks, %d bytes (PCTR2)" Offline.base
          c.Offline.stream.Gen.len c.Offline.bytes;
        Offline.check_reference ~tally c;
        let sim = Offline.sim_cycles_per_block c in
        ready ();
        if not traced then
          let start, ops = Offline.end_to_end ~seconds:secs ~tally c in
          (e2e ~start ~ops ~setup ~sim ~rss:(Report.peak_rss_mb ()), [])
        else
          let spans, layers = Offline.layers ~seconds:secs ~tally c in
          (setup_layers setup ~images:1 @ layers, spans)
    | "offline-churn" ->
        let c, setup = Churn.prepare ~dir ~reps:setup_reps ~seed ?tr () in
        report_setup setup;
        say "input: %d asids (%s), %d blocks, %d single-asid runs, %d bytes (PCTR3)"
          (Array.length c.Churn.images) (String.concat " " Gen.churn_bases)
          c.Churn.blocks c.Churn.runs c.Churn.bytes;
        Churn.check_reference ~tally c;
        let sim = Churn.sim_cycles_per_block c in
        let jobs = Churn.jobs () in
        say "jobs: %d" jobs;
        ready ();
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            if not traced then
              let start, ops = Churn.end_to_end ~seconds:secs ~tally pool c in
              (e2e ~start ~ops ~setup ~sim ~rss:(Report.peak_rss_mb ()), [])
            else
              let spans, layers = Churn.layers ~seconds:secs ~tally pool c in
              (setup_layers setup ~images:(Array.length c.Churn.images) @ layers, spans))
    | _ ->
        let c, setup = Fleet.prepare ~dir ~reps:setup_reps ~seed ?tr () in
        report_setup setup;
        let sizes = Array.to_list (Array.map (fun s -> float_of_int s.Gen.blocks) c.Fleet.sessions) in
        say
          "closed loop: 1 generator thread, %d connection(s) (1 session in flight, \
           scrapes on the last), daemon loop in a second thread of the same domain \
           (jobs 1)"
          (Fleet.timed_conc ());
        say "session pool: %d sessions (%d PCTR3), blocks min %.0f p50 %.0f p90 %.0f max %.0f"
          (Array.length c.Fleet.sessions)
          (Array.fold_left (fun n s -> if s.Gen.v3 then n + 1 else n) 0 c.Fleet.sessions)
          (Quantile.percentile 1e-9 sizes) (Quantile.percentile 0.5 sizes)
          (Quantile.percentile 0.9 sizes) (Quantile.percentile 1.0 sizes);
        Fleet.check_reference ~tally c;
        let sim = Fleet.sim_cycles_per_block c in
        ready ();
        if not traced then begin
          let l = Fleet.end_to_end ~dir ~seconds:secs ~seed ~tally c in
          let sc = List.map (fun x -> x *. 1e3) l.Fleet.scrapes in
          if sc <> [] then
            say "scrape_ms p50 %.3f p90 %.3f over %d scrapes"
              (Quantile.percentile 0.5 sc) (Quantile.percentile 0.9 sc) (List.length sc);
          (* the workload's high-water mark, before the correctness pass
             (a second daemon retaining every stream) adds its own *)
          let rss = Report.peak_rss_mb () in
          Fleet.check_offline ~dir ~tally c;
          say "peak RSS after the correctness pass: %.1f MiB" (Report.peak_rss_mb ());
          (e2e ~start:l.Fleet.first ~ops:(Fleet.ops l) ~setup ~sim ~rss, [])
        end
        else
          let spans, layers = Fleet.layers ~dir ~seconds:secs ~seed ~tally c in
          (setup_layers setup ~images:1 @ layers, spans)
  in
  say "operations: %d attempted, %d failed, error_rate %g" tally.Tally.attempted
    tally.Tally.failed (Tally.error_rate tally);
  List.iter (fun r -> say "failure: %s" r) (List.rev tally.Tally.reasons);
  let specs, values =
    if traced then
      ( Metrics.per_layer,
        (* a layer this workload does not exercise reports 0 *)
        List.map
          (fun (s : Metrics.spec) ->
            (s.Metrics.name, Option.value (List.assoc_opt s.Metrics.name values) ~default:0.0))
          Metrics.per_layer )
    else (Metrics.end_to_end, values)
  in
  (match (tr, !spans_out) with
  | Some t, f when f <> "" -> Spans.write (t :: spans) f
  | _ -> ());
  print_endline (Report.result_json tally specs values);
  exit (Tally.exit_code tally)
