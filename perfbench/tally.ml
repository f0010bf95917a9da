(* Operation accounting. Every timed operation's output is checked against
   a reference computed before timing started; a wrong profile, an
   exception or a dropped session is a failure, and any failure makes the
   run exit non-zero. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (* first few failure reasons, newest first *)
}

let create () = { attempted = 0; failed = 0; reasons = [] }

let fail t reason =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if List.length t.reasons < 8 then t.reasons <- reason :: t.reasons

let check t ~what ok = if ok then t.attempted <- t.attempted + 1 else fail t what

(* Run one operation; an exception counts as a failure of [what]. *)
let guard t ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      fail t (what ^ ": " ^ Printexc.to_string e);
      None

let correct t = t.failed = 0 && t.attempted > 0

let error_rate t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let exit_code t = if correct t then 0 else 1
