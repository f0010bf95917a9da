(* serve-fleet: an in-process Server at jobs 1 on the offline-branchy
   image and engine, driven closed-loop by one load-generator thread that
   select-multiplexes at most nproc connections. Sessions are seeded
   slices of the mcf stream with log-spaced lengths, half PCTR2 and half
   PCTR3 re-encodings switching between two asids every 64 blocks. The
   timed loop keeps one session in flight, so a session's latency is its
   own cost and not a share of whatever else the single drain loop
   interleaves with it; each completed session triggers one scrape on a
   second connection, so scrapes compete with the next session's live
   drain cycles. The blocks and image match offline-branchy, so the
   difference is the daemon's own cost. *)

module Core = Tea_core
module P = Tea_parallel
module Frame = Tea_serve.Frame
module Server = Tea_serve.Server

type t = {
  img : Setup.image;
  sessions : Gen.session array;
  expected : P.Profile.t array;  (* per session *)
}

let conc () = Domain.recommended_domain_count ()

(* Connections of the timed loop: one session slot, plus a scrape slot
   when there is a second core (on one core slot 0 alternates). *)
let timed_conc () = min 2 (conc ())

(* Sequential packed-engine replay of one session's bytes. *)
let session_expected img (s : Gen.session) =
  let m = Core.Multi_replayer.create (fun _ -> Setup.packed_replayer img) in
  let f = Core.Multi_replayer.feeder m in
  let d = Core.Pc_trace.decoder () in
  Core.Pc_trace.decoder_feed d s.Gen.bytes (fun ~asid ev ->
      Core.Multi_replayer.feeder_feed f ~asid ev);
  Core.Pc_trace.decoder_finish d;
  Core.Multi_replayer.feeder_flush f;
  P.Profile.merge_all (List.map snd (Core.Multi_replayer.snapshots m))

let prepare ~dir ~reps ~seed ?tr () =
  let path = Gen.capture ~dir Offline.base in
  let stream = Gen.load path in
  let setup = Setup.run ?tr ~reps [ (Offline.base, stream, stream.Gen.len) ] in
  let img = List.hd setup.Setup.images in
  let sessions = Gen.fleet_sessions ~seed ~dir stream in
  let expected = Array.map (session_expected img.Setup.tuned) sessions in
  ({ img; sessions; expected }, setup)

(* Reference-engine TBB counts summed over the session pool. *)
let check_reference ~tally c =
  let counts =
    Array.map
      (fun (s : Gen.session) ->
        let m =
          Core.Multi_replayer.create (fun _ ->
              Setup.reference_replayer c.img.Setup.auto)
        in
        let d = Core.Pc_trace.decoder () in
        Core.Pc_trace.decoder_feed d s.Gen.bytes (fun ~asid ev ->
            Core.Multi_replayer.feed m ~asid ev);
        Core.Pc_trace.decoder_finish d;
        P.Profile.merge_all (List.map snd (Core.Multi_replayer.snapshots m)))
      c.sessions
  in
  let counts_of ps = (P.Profile.merge_all (Array.to_list ps)).P.Profile.counts in
  Tally.check tally ~what:"reference-engine TBB counts"
    (counts_of counts = counts_of c.expected)

let blocks_of c = Array.fold_left (fun acc s -> acc + s.Gen.blocks) 0 c.sessions

let sim_cycles_per_block c =
  float_of_int
    (Array.fold_left (fun acc p -> acc + p.P.Profile.cycles) 0 c.expected)
  /. float_of_int (blocks_of c)

(* ---- the load generator ---- *)

type slot =
  | Idle
  | Send of { fd : Unix.file_descr; k : int; mutable off : int; t0 : float }
  | Wait of {
      fd : Unix.file_descr;
      k : int;
      parser : Frame.parser_;
      t0 : float;
      t_end : float;
    }
  | Scrape of { fd : Unix.file_descr; parser : Frame.parser_; t0 : float }

type load = {
  first : float;  (* first connect *)
  last : float;  (* last reply *)
  blocks : int;  (* over completed sessions *)
  done_ : int array;  (* completed sessions per pool index *)
  scrapes : float list;  (* connect -> exposition received, s *)
  phases : (float * float * float * int) list;
      (* per completed session, in completion order: connect, end frame
         written, profile received, blocks *)
}

(* (latency, completion time, blocks) per completed session. *)
let ops l = List.map (fun (t0, _, t, b) -> (t -. t0, t, b)) l.phases

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Closed loop over [conc] connections: a slot sends its next session as
   soon as its previous reply arrived, until [next] runs dry. With
   [scrape], every completed session makes a scrape due on the last slot,
   which then carries only scrapes (or, with one slot, alternates them
   with sessions). One thread, one select. Every reply is checked; an
   error reply, a wrong profile, a reset or an EOF before the reply is a
   failure. *)
let drive ~addr ~conc ~scrape ~next ~(tally : Tally.t) c =
  let slots = Array.make conc Idle in
  let scrape_slot = if scrape then conc - 1 else -1 in
  let scrape_due = ref false and sessions_over = ref false in
  let buf = Bytes.create 65536 in
  let first = ref infinity and last = ref 0.0 and blocks = ref 0 in
  let done_ = Array.make (Array.length c.sessions) 0 in
  let scrapes = ref [] and phases = ref [] in
  let connect () =
    let t0 = Report.now () in
    if t0 < !first then first := t0;
    let fd = Frame.connect addr in
    (fd, t0)
  in
  let start i =
    if i = scrape_slot && !scrape_due then begin
      scrape_due := false;
      match connect () with
      | fd, t0 ->
          Frame.send fd Frame.tag_scrape "";
          Unix.set_nonblock fd;
          slots.(i) <- Scrape { fd; parser = Frame.parser_ (); t0 }
      | exception e -> Tally.fail tally ("scrape connect: " ^ Printexc.to_string e)
    end
    else if i = scrape_slot && conc > 1 then ()
    else
      match if !sessions_over then None else next () with
      | None -> sessions_over := true
      | Some k -> (
          match connect () with
          | fd, t0 ->
              Unix.set_nonblock fd;
              slots.(i) <- Send { fd; k; off = 0; t0 }
          | exception e ->
              Tally.fail tally ("session connect: " ^ Printexc.to_string e))
  in
  let finish i fd =
    close fd;
    slots.(i) <- Idle;
    if scrape && not !sessions_over then scrape_due := true
  in
  let on_frame i (f : Frame.frame) =
    let t = Report.now () in
    match slots.(i) with
    | Wait { fd; k; t0; t_end; _ } ->
        (if f.Frame.tag = Frame.tag_profile then begin
           last := Float.max !last t;
           let ok =
             match Frame.decode_profile f.Frame.payload with
             | p -> P.Profile.equal p c.expected.(k)
             | exception Frame.Corrupt _ -> false
           in
           Tally.check tally ~what:"session profile" ok;
           if ok then begin
             done_.(k) <- done_.(k) + 1;
             blocks := !blocks + c.sessions.(k).Gen.blocks;
             phases := (t0, t_end, t, c.sessions.(k).Gen.blocks) :: !phases
           end
         end
         else Tally.fail tally ("session reply: " ^ f.Frame.payload));
        finish i fd
    | Scrape { fd; t0; _ } ->
        let ok =
          f.Frame.tag = Frame.tag_metrics
          && String.length f.Frame.payload > 0
        in
        Tally.check tally ~what:"scrape" ok;
        if ok then scrapes := (t -. t0) :: !scrapes;
        close fd;
        slots.(i) <- Idle
    | Idle | Send _ -> ()
  in
  let drop i fd what =
    Tally.fail tally what;
    close fd;
    slots.(i) <- Idle
  in
  let idle = function Idle -> true | Send _ | Wait _ | Scrape _ -> false in
  let fill () = Array.iteri (fun i s -> if idle s then start i) slots in
  fill ();
  while not (Array.for_all idle slots) do
    let rd = ref [] and wr = ref [] in
    Array.iter
      (function
        | Idle -> ()
        | Send { fd; _ } -> wr := fd :: !wr
        | Wait { fd; _ } | Scrape { fd; _ } -> rd := fd :: !rd)
      slots;
    let r, w, _ =
      try Unix.select !rd !wr [] 30.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r = [] && w = [] then
      (* no progress in 30 s: the daemon is stuck; count what is in flight *)
      Array.iteri
        (fun i -> function
          | Idle -> ()
          | Send { fd; _ } | Wait { fd; _ } | Scrape { fd; _ } ->
              drop i fd "no progress for 30 s")
        slots
    else
      Array.iteri
        (fun i s ->
          match s with
          | Idle -> ()
          | Send st when List.memq st.fd w -> (
              let wire = c.sessions.(st.k).Gen.wire in
              let len = String.length wire in
              match Unix.write_substring st.fd wire st.off (len - st.off) with
              | n ->
                  st.off <- st.off + n;
                  if st.off = len then
                    slots.(i) <-
                      Wait
                        {
                          fd = st.fd;
                          k = st.k;
                          parser = Frame.parser_ ();
                          t0 = st.t0;
                          t_end = Report.now ();
                        }
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                ->
                  ()
              | exception Unix.Unix_error (e, _, _) ->
                  drop i st.fd ("session send: " ^ Unix.error_message e))
          | (Wait { fd; parser; _ } | Scrape { fd; parser; _ })
            when List.memq fd r -> (
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> drop i fd "connection closed before the reply"
              | n -> (
                  try Frame.parser_feed parser (Bytes.sub_string buf 0 n) (on_frame i)
                  with Frame.Corrupt m -> drop i fd ("bad reply framing: " ^ m))
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                ->
                  ()
              | exception Unix.Unix_error (e, _, _) ->
                  drop i fd ("session read: " ^ Unix.error_message e))
          | _ -> ())
        slots;
    fill ()
  done;
  {
    first = !first;
    last = !last;
    blocks = !blocks;
    done_;
    scrapes = List.rev !scrapes;
    phases = List.rev !phases;
  }

let ns_per_block (l : load) =
  (l.last -. l.first) *. 1e9 /. float_of_int (max 1 l.blocks)

(* Run [f addr] against a fresh daemon serving [c]'s image on a Unix
   socket in [dir] (no Nagle/delayed-ACK stalls between the generator's
   writes and the daemon's reads), then stop it, wait for its loop and
   hand the stopped server to [after] before closing it.

   The daemon's select loop runs in a system thread of the calling
   domain, not in a domain of its own: with two domains every minor
   collection of the daemon is a stop-the-world rendezvous that has to
   wake the generator domain's backup thread, so the run's cost follows
   the host's wake-up latency. One domain collects alone; the generator
   only needs the runtime lock between the daemon's selects. *)
let with_server ?(offline_check = false) ~dir c f after =
  let srv =
    Server.create ~engine:`Compiled ~offline_check ~jobs:1
      ~image:c.img.Setup.tuned
      (Frame.Unix_sock (Filename.concat dir "fleet.sock"))
  in
  let ran = ref (Ok ()) in
  let loop =
    Thread.create (fun () -> try Server.run srv with e -> ran := Error e) ()
  in
  let r = try Ok (f (Server.addr srv)) with e -> Error e in
  Server.stop srv;
  Thread.join loop;
  Fun.protect
    ~finally:(fun () -> Server.close srv)
    (fun () ->
      match (!ran, r) with
      | Error e, _ | _, Error e -> raise e
      | Ok (), Ok v -> after srv v)

let fleet_expected c (l : load) =
  let acc = ref P.Profile.empty in
  Array.iteri
    (fun k n ->
      for _ = 1 to n do
        acc := P.Profile.merge !acc c.expected.(k)
      done)
    l.done_;
  !acc

(* A timed closed-loop run of [seconds]; the fleet profile must be the
   merge of the completed sessions' expected profiles. *)
let live ~dir ~seconds ~seed ~tally c after =
  let order = Gen.order ~seed (Array.length c.sessions) in
  with_server ~dir c
    (fun addr ->
      let deadline = Report.now () +. seconds in
      drive ~addr ~conc:(timed_conc ()) ~scrape:true
        ~next:(fun () -> if Report.now () < deadline then Some (order ()) else None)
        ~tally c)
    (fun srv l ->
      Tally.check tally ~what:"fleet == merged session profiles"
        (P.Profile.equal (Server.fleet_profile srv) (fleet_expected c l)
        && Server.disconnected srv = 0);
      after srv l)

(* One pass over the session pool through a daemon retaining every
   stream: fleet == Server.offline_profile == merged expected. *)
let check_offline ~dir ~tally c =
  let i = ref 0 in
  let n = Array.length c.sessions in
  with_server ~dir ~offline_check:true c
    (fun addr ->
      drive ~addr ~conc:(conc ()) ~scrape:false
        ~next:(fun () ->
          if !i < n then (
            incr i;
            Some (!i - 1))
          else None)
        ~tally c)
    (fun srv l ->
      let fleet = Server.fleet_profile srv in
      Tally.check tally ~what:"fleet == Server.offline_profile"
        (Array.for_all (fun d -> d = 1) l.done_
        && P.Profile.equal fleet (Server.offline_profile srv)
        && P.Profile.equal fleet (P.Profile.merge_all (Array.to_list c.expected))))

let ms xs = List.map (fun x -> x *. 1e3) xs

let end_to_end ~dir ~seconds ~seed ~tally c =
  live ~dir ~seconds ~seed ~tally c (fun _ l -> l)

(* ---- the traced run ---- *)

(* What the daemon does to one session, recomposed from the public
   functions it calls, one span per layer: frame parsing in server-sized
   reads, the streaming decoder, the event queue, feeder staging into
   the compiled engine (whose per-asid compile is a child span), the
   per-session fold, the profile echo and the fleet merge. *)
let recompose tr c ~fleet k =
  let s = c.sessions.(k) in
  let wire = s.Gen.wire in
  let payloads =
    Spans.span tr "frame.parse" (fun () ->
        let p = Frame.parser_ () and acc = ref [] in
        let n = String.length wire and off = ref 0 in
        while !off < n do
          let len = min 65536 (n - !off) in
          Frame.parser_feed p ~off:!off ~len wire (fun f ->
              if f.Frame.tag = Frame.tag_data then acc := f.Frame.payload :: !acc);
          off := !off + len
        done;
        List.rev !acc)
  in
  (* decoded events, flattened the way the daemon's queue holds them *)
  let evs = Array.make (4 * (s.Gen.blocks + (s.Gen.blocks / Gen.asid_period) + 2)) 0 in
  let ne = ref 0 in
  let cuts = ref [] in
  Spans.span tr "pc_trace.stream_decode" (fun () ->
      let d = Core.Pc_trace.decoder () in
      List.iter
        (fun pl ->
          Core.Pc_trace.decoder_feed d pl (fun ~asid ev ->
              let i = 4 * !ne in
              (match ev with
              | Core.Pc_trace.Block { start; insns } ->
                  evs.(i) <- Tea_serve.Evq.tag_block;
                  evs.(i + 2) <- start;
                  evs.(i + 3) <- insns
              | Core.Pc_trace.Switch { asid = a } ->
                  evs.(i) <- Tea_serve.Evq.tag_switch;
                  evs.(i + 2) <- a
              | Core.Pc_trace.Invalidate { asid = a } ->
                  evs.(i) <- Tea_serve.Evq.tag_invalidate;
                  evs.(i + 2) <- a
              | Core.Pc_trace.Interrupt -> evs.(i) <- Tea_serve.Evq.tag_interrupt);
              evs.(i + 1) <- asid;
              incr ne);
          cuts := !ne :: !cuts)
        payloads;
      Core.Pc_trace.decoder_finish d);
  let ne = !ne and cuts = List.rev !cuts in
  let event i =
    let t = evs.(4 * i) and a = evs.((4 * i) + 2) in
    if t = Tea_serve.Evq.tag_block then
      Core.Pc_trace.Block { start = a; insns = evs.((4 * i) + 3) }
    else if t = Tea_serve.Evq.tag_switch then Core.Pc_trace.Switch { asid = a }
    else if t = Tea_serve.Evq.tag_invalidate then
      Core.Pc_trace.Invalidate { asid = a }
    else Core.Pc_trace.Interrupt
  in
  (* one queue per session, filled by each read and emptied by the drain
     cycle that follows it *)
  Spans.span tr "evq" (fun () ->
      let q = Tea_serve.Evq.create () in
      let i = ref 0 in
      List.iter
        (fun cut ->
          while !i < cut do
            Tea_serve.Evq.push q ~asid:evs.((4 * !i) + 1) (event !i);
            incr i
          done;
          while not (Tea_serve.Evq.is_empty q) do
            ignore
              (Sys.opaque_identity
                 (Tea_serve.Evq.tag q + Tea_serve.Evq.asid q + Tea_serve.Evq.f1 q
                + Tea_serve.Evq.f2 q));
            Tea_serve.Evq.drop q
          done)
        cuts);
  let parent = Spans.current tr in
  let m =
    Core.Multi_replayer.create (fun _ ->
        Spans.span tr ~parent "compile" (fun () ->
            Setup.compiled_replayer c.img.Setup.tuned))
  in
  Spans.span tr "multi_replayer.feeder" (fun () ->
      let f = Core.Multi_replayer.feeder m in
      (* the daemon flushes at the end of every drain cycle; one cycle
         per server read of a frame's worth of bytes *)
      let i = ref 0 in
      List.iter
        (fun cut ->
          while !i < cut do
            let b = 4 * !i in
            if evs.(b) = Tea_serve.Evq.tag_block then
              Core.Multi_replayer.feeder_block f ~asid:evs.(b + 1)
                ~start:evs.(b + 2) ~insns:evs.(b + 3)
            else Core.Multi_replayer.feeder_feed f ~asid:evs.(b + 1) (event !i);
            incr i
          done;
          Core.Multi_replayer.feeder_flush f)
        cuts);
  let prof =
    Spans.span tr "profile.snapshot" (fun () ->
        P.Profile.merge_all (List.map snd (Core.Multi_replayer.snapshots m)))
  in
  ignore
    (Spans.span tr "frame.encode_profile" (fun () -> Frame.encode_profile prof));
  Spans.span tr "profile.merge" (fun () -> fleet := P.Profile.merge !fleet prof);
  (prof, evs, ne, cuts, Core.Multi_replayer.switches m)

(* Dispatch alone on the same blocks: each same-asid run (cut where the
   feeder would flush — asid change, non-block event, a full 4096-block
   buffer, a drain-cycle boundary) fed from arrays straight to the
   asid's compiled replayer. Returns (seconds, runs). *)
let dispatch_only c evs ne cuts =
  let reps = Hashtbl.create 2 in
  let rep a =
    match Hashtbl.find_opt reps a with
    | Some r -> r
    | None ->
        let r = Setup.compiled_replayer c.img.Setup.tuned in
        Hashtbl.add reps a r;
        r
  in
  let starts = Array.make ne 0 and insns = Array.make ne 0 in
  let runs = ref [] in
  let cur = ref (-1) and lo = ref 0 and n = ref 0 in
  let close_run () =
    if !n > 0 then runs := (!cur, !lo, !n) :: !runs;
    n := 0
  in
  let cuts = ref cuts in
  for i = 0 to ne - 1 do
    while (match !cuts with c :: _ -> c <= i | [] -> false) do
      close_run ();
      cuts := List.tl !cuts
    done;
    let b = 4 * i in
    if evs.(b) = Tea_serve.Evq.tag_block then begin
      let a = evs.(b + 1) in
      if a <> !cur || !n = 4096 then close_run ();
      if !n = 0 then begin
        cur := a;
        lo := i
      end;
      starts.(i) <- evs.(b + 2);
      insns.(i) <- evs.(b + 3);
      incr n
    end
    else close_run ()
  done;
  close_run ();
  let runs = List.rev !runs in
  List.iter (fun (a, _, _) -> ignore (rep a)) runs;
  let t0 = Report.now () in
  List.iter
    (fun (a, off, len) -> Core.Replayer.feed_run (rep a) ~off ~insns starts ~len)
    runs;
  (Report.now () -. t0, List.length runs)

let layers ~dir ~seconds ~seed ~tally c =
  let third = seconds /. 3.0 in
  let base = end_to_end ~dir ~seconds:third ~seed ~tally c in
  let untraced_ns = ns_per_block base in
  let tr = Spans.create () in
  let minor0 = Report.minor_words () and major0 = Report.major_collections () in
  let srv_metrics, (l : load), render_s, drain =
    live ~dir ~seconds:third ~seed:(seed + 1) ~tally c (fun srv l ->
        List.iter
          (fun (t0, t_end, t, _) ->
            let parent = Spans.record tr "session" t0 t in
            ignore (Spans.record tr ~parent "client.send" t0 t_end);
            ignore (Spans.record tr ~parent "client.tail" t_end t))
          l.phases;
        let r0 = Report.now () in
        for _ = 1 to 20 do
          ignore (Sys.opaque_identity (Server.exposition srv))
        done;
        (Server.metrics srv, l, (Report.now () -. r0) /. 20.0, Server.drain_totals srv))
  in
  let sessions_done = List.length l.phases in
  let minor = Report.minor_words () -. minor0 in
  let major = Report.major_collections () - major0 in
  let traced_ns = ns_per_block l in
  (* the recomposed sessions, drawn in the live run's order *)
  let rtr = Spans.create () in
  let fleet = ref P.Profile.empty in
  let blocks = ref 0 and events = ref 0 and bytes = ref 0 and sessions = ref 0 in
  let runs = ref 0 and switches = ref 0 and dispatch_s = ref 0.0 in
  let order = Gen.order ~seed (Array.length c.sessions) in
  let deadline = Report.now () +. third in
  while Report.now () < deadline do
    let k = order () in
    let s = c.sessions.(k) in
    match
      Tally.guard tally ~what:"recomposed session" (fun () ->
          Spans.span rtr "session" (fun () -> recompose rtr c ~fleet k))
    with
    | Some (prof, evs, ne, cuts, sw) ->
        Tally.check tally ~what:"recomposed session" (P.Profile.equal prof c.expected.(k));
        let d, r = dispatch_only c evs ne cuts in
        dispatch_s := !dispatch_s +. d;
        runs := !runs + r;
        switches := !switches + sw;
        blocks := !blocks + s.Gen.blocks;
        events := !events + ne;
        bytes := !bytes + String.length s.Gen.wire;
        incr sessions
    | None -> ()
  done;
  (* allocation of the streaming decoder alone, on the largest session *)
  let big =
    Array.fold_left
      (fun b (s : Gen.session) -> if s.Gen.blocks > b.Gen.blocks then s else b)
      c.sessions.(0) c.sessions
  in
  let decode_alloc =
    let d = Core.Pc_trace.decoder () in
    Report.alloc_per_block big.Gen.blocks (fun () ->
        let n = String.length big.Gen.bytes and off = ref 0 in
        while !off < n do
          let len = min Gen.frame_bytes (n - !off) in
          Core.Pc_trace.decoder_feed d ~off:!off ~len big.Gen.bytes (fun ~asid:_ _ -> ());
          off := !off + len
        done)
  in
  Core.Tierstat.install ();
  Array.iteri
    (fun k _ ->
      match
        Tally.guard tally ~what:"recomposed session" (fun () ->
            recompose (Spans.create ()) c ~fleet:(ref P.Profile.empty) k)
      with
      | Some (prof, _, _, _, _) ->
          Tally.check tally ~what:"recomposed session"
            (P.Profile.equal prof c.expected.(k))
      | None -> ())
    c.sessions;
  let tiers = Core.Tierstat.uninstall () in
  let sum = Spans.by_name rtr in
  let fb = float_of_int (max 1 !blocks) and fs = float_of_int (max 1 !sessions) in
  let per_block name = Spans.total sum name *. 1e9 /. fb in
  let per_session_us name = Spans.total sum name *. 1e6 /. fs in
  let feeder_self = Spans.self sum "multi_replayer.feeder" in
  let layers_s =
    List.fold_left
      (fun acc n -> acc +. Spans.total sum n)
      0.0
      [ "frame.parse"; "pc_trace.stream_decode"; "evq"; "multi_replayer.feeder";
        "profile.snapshot"; "frame.encode_profile"; "profile.merge" ]
  in
  let hist name = Tea_telemetry.Metrics.find_histogram srv_metrics name in
  let q name p =
    match hist name with Some h -> Tea_telemetry.Metrics.quantile h p | None -> 0.0
  in
  let counter name =
    float_of_int
      (Option.value (Tea_telemetry.Metrics.find_counter srv_metrics name) ~default:0)
  in
  let drain_ns, drain_blocks = drain in
  let pct p xs = if xs = [] then 0.0 else Quantile.percentile p (ms xs) in
  let tails = List.map (fun (_, te, t, _) -> t -. te) l.phases in
  ( [ tr; rtr ],
    [
      ( "compile.ms_per_asid",
        Spans.total sum "compile" *. 1e3 /. float_of_int (max 1 (Spans.count sum "compile")) );
      ( "pc_trace.bytes_per_block",
        float_of_int (Array.fold_left (fun a s -> a + String.length s.Gen.bytes) 0 c.sessions)
        /. float_of_int (blocks_of c) );
      ("pc_trace.stream_decode_ns_per_block", per_block "pc_trace.stream_decode");
      ("pc_trace.stream_decode_alloc_words_per_block", decode_alloc);
      ("replayer.dispatch_ns_per_block", !dispatch_s *. 1e9 /. fb);
      ("evq.ns_per_event", Spans.total sum "evq" *. 1e9 /. float_of_int (max 1 !events));
      ("multi_replayer.feeder_ns_per_block", feeder_self *. 1e9 /. fb);
      ("multi_replayer.staging_ns_per_block", (feeder_self -. !dispatch_s) *. 1e9 /. fb);
      ("multi_replayer.flushes_per_kblock", float_of_int !runs *. 1e3 /. fb);
      ("multi_replayer.switches_per_kblock", float_of_int !switches *. 1e3 /. fb);
      ("frame.parse_ns_per_byte", Spans.total sum "frame.parse" *. 1e9 /. float_of_int (max 1 !bytes));
      ("frame.encode_profile_us", per_session_us "frame.encode_profile");
      ("profile.snapshot_us", per_session_us "profile.snapshot");
      ("profile.merge_us", per_session_us "profile.merge");
      ("client.send_ms_p50", pct 0.5 (List.map (fun (t0, te, _, _) -> te -. t0) l.phases));
      ("client.tail_ms_p50", pct 0.5 tails);
      ("client.tail_ms_p90", pct 0.9 tails);
      ("server.drain_ns_per_block", float_of_int drain_ns /. float_of_int (max 1 drain_blocks));
      ("server.drain_busy_frac", float_of_int drain_ns /. 1e9 /. (l.last -. l.first));
      ("server.queue_depth_p50", q "serve.queue_depth" 0.5);
      ("server.queue_depth_p99", q "serve.queue_depth" 0.99);
      ( "server.frames_per_session",
        counter "serve.frames" /. Float.max 1.0 (counter "serve.sessions_completed") );
      ("server.session_ns_per_block_p50", q "serve.session_ns_per_block" 0.5);
      ("exposition.render_us", render_s *. 1e6);
      ("scrape_ms_p50", pct 0.5 l.scrapes);
      ("scrape_ms_p90", pct 0.9 l.scrapes);
      ("gc.minor_words_per_block", minor /. float_of_int (max 1 l.blocks));
      ("gc.major_collections_per_op", float_of_int major /. float_of_int (max 1 sessions_done));
      ("gc.top_heap_mb", Report.top_heap_mb ());
      ( "ledger.unattributed_frac",
        Report.unattributed ~layers_s ~blocks:fb ~untraced_ns );
      ("trace.overhead_pct", Report.overhead_pct ~traced_ns ~untraced_ns);
    ]
    @ Report.tier_fracs tiers )
