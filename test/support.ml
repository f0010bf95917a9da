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
