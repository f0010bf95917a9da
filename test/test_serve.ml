(* Replay-as-a-service: the wire framing, the streaming Pc_trace decoder,
   non-seekable trace I/O, and the tea_serve daemon itself.

   The headline property is the daemon gate — the fleet profile folded
   from N concurrent socket sessions must equal (Profile.equal, i.e.
   bit-for-bit over every replayer observable) the merge of replaying
   each session's byte stream offline, sequentially, at jobs 1/2/4, on
   flat and repacked+fused images, and a mid-stream disconnect must
   neither crash the daemon nor perturb any other session's profile. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi = Tea_core.Multi_replayer
module Profile = Tea_parallel.Profile
module Frame = Tea_serve.Frame
module Server = Tea_serve.Server
module Client = Tea_serve.Client

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let profile = Alcotest.testable Profile.pp Profile.equal

let with_tmp f =
  let path = Filename.temp_file "tea_test_serve" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* events -> raw trace-file bytes, via the real writer *)
let bytes_of_events ?(format = Pc_trace.V3) events =
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w;
  Pc_trace.read_all path

let stamped_of_file path =
  List.rev
    (Pc_trace.fold_events path [] (fun acc ~asid ev -> (asid, ev) :: acc))

let stamped_of_bytes s =
  with_tmp @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  stamped_of_file path

(* ---------------- framing ---------------- *)

let test_frame_roundtrip () =
  let frames =
    [ (Frame.tag_data, String.init 300 (fun i -> Char.chr (i mod 256)));
      (Frame.tag_data, "");
      (Frame.tag_end, "");
      (Frame.tag_profile, "p");
      (Frame.tag_error, "boom") ]
  in
  let wire =
    String.concat "" (List.map (fun (t, p) -> Frame.encode t p) frames)
  in
  (* any chunking of the wire bytes must yield exactly the same frames *)
  List.iter
    (fun chunk ->
      let p = Frame.parser_ () in
      let got = ref [] in
      let off = ref 0 in
      let n = String.length wire in
      while !off < n do
        let k = min chunk (n - !off) in
        Frame.parser_feed p ~off:!off ~len:k wire (fun f ->
            got := (f.Frame.tag, f.Frame.payload) :: !got);
        off := !off + k
      done;
      check
        Alcotest.(list (pair char string))
        (Printf.sprintf "chunk %d" chunk)
        frames (List.rev !got);
      check Alcotest.int "no bytes left buffered" 0 (Frame.parser_pending p))
    [ 1; 2; 7; 64; String.length wire ]

let test_frame_hostile_length () =
  (* a length prefix past max_payload must raise, not allocate *)
  let b = Bytes.make 5 '\xFF' in
  Bytes.set b 0 Frame.tag_data;
  let p = Frame.parser_ () in
  Alcotest.check_raises "oversized length"
    (Frame.Corrupt "frame payload too large") (fun () ->
      Frame.parser_feed p (Bytes.to_string b) (fun _ -> ()))

let test_frame_varint_cap () =
  (* a 10-byte varint would put its last byte at shift 63 *)
  Alcotest.check_raises "10-byte profile varint"
    (Frame.Corrupt "profile varint too long") (fun () ->
      ignore (Frame.decode_profile (String.make 9 '\x80' ^ "\x01")))

let test_frame_fd_helpers () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.send a Frame.tag_data "hello";
      Frame.send a Frame.tag_end "";
      (match Frame.recv b with
      | Some f ->
          check Alcotest.char "tag" Frame.tag_data f.Frame.tag;
          check Alcotest.string "payload" "hello" f.Frame.payload
      | None -> Alcotest.fail "expected a data frame");
      (match Frame.recv b with
      | Some f -> check Alcotest.char "end tag" Frame.tag_end f.Frame.tag
      | None -> Alcotest.fail "expected the end frame");
      (* clean EOF at a frame boundary *)
      Unix.close a;
      check Alcotest.bool "eof" true (Frame.recv b = None))

let gen_profile =
  let open QCheck.Gen in
  let nat = int_range 0 1_000_000 in
  let counts =
    list_size (int_range 0 20) (pair (int_range 0 5000) (int_range 1 100_000))
  in
  map2
    (fun counts (covered, total, enters, exits, steps) ->
      {
        Profile.counts;
        covered;
        total;
        enters;
        exits;
        steps;
        in_trace_hits = steps / 2;
        cache_hits = steps / 3;
        global_hits = steps / 4;
        global_misses = steps / 5;
        cycles = steps * 3;
      })
    counts
    (tup5 nat nat nat nat nat)

let prop_profile_codec =
  QCheck.Test.make ~name:"profile payload round-trips" ~count:200
    (QCheck.make gen_profile) (fun p ->
      let q = Frame.decode_profile (Frame.encode_profile p) in
      p.Profile.counts = q.Profile.counts && Profile.equal p q)

(* ---------------- streaming decoder ---------------- *)

let gen_events =
  let open QCheck.Gen in
  let block =
    map2
      (fun start insns -> Pc_trace.Block { start; insns })
      (int_range 0 0xFFFFF) (int_range 0 8)
  in
  let ev =
    frequency
      [ (6, block);
        (1, map (fun asid -> Pc_trace.Switch { asid }) (int_range 0 3));
        (1, map (fun asid -> Pc_trace.Invalidate { asid }) (int_range 0 3));
        (1, return Pc_trace.Interrupt) ]
  in
  list_size (int_range 0 200) ev

let decode_chunked chunk s =
  let d = Pc_trace.decoder () in
  let got = ref [] in
  let off = ref 0 in
  let n = String.length s in
  while !off < n do
    let k = min chunk (n - !off) in
    Pc_trace.decoder_feed d ~off:!off ~len:k s (fun ~asid ev ->
        got := (asid, ev) :: !got);
    off := !off + k
  done;
  Pc_trace.decoder_finish d;
  check Alcotest.int "decoder drained" 0 (Pc_trace.decoder_pending d);
  List.rev !got

(* The decoder core fed [chunk] bytes at a time into a batch with room
   for [cap] blocks and [cap] events, drained whenever a fill returns —
   so it resumes mid-feed whenever the batch fills. Returns the stamped
   event list and the bytes left parked. *)
let core_decode ~chunk ~cap s =
  let d = Pc_trace.decoder () in
  let b = Pc_trace.batch ~blocks:cap ~events:cap in
  let got = ref [] and asid = ref 0 in
  let drain () =
    let lo = ref 0 in
    let blocks upto =
      for i = !lo to upto - 1 do
        got :=
          (!asid, Pc_trace.Block { start = b.starts.(i); insns = b.insns.(i) })
          :: !got
      done;
      lo := upto
    in
    for e = 0 to b.nevents - 1 do
      let kind = b.events.((3 * e) + 1) and x = b.events.((3 * e) + 2) in
      blocks b.events.(3 * e);
      let ev =
        if kind = Pc_trace.ev_switch then begin
          asid := x;
          Pc_trace.Switch { asid = x }
        end
        else if kind = Pc_trace.ev_invalidate then Pc_trace.Invalidate { asid = x }
        else begin
          check Alcotest.int "interrupt operand is the current asid" !asid x;
          Pc_trace.Interrupt
        end
      in
      got := (!asid, ev) :: !got
    done;
    blocks b.len;
    b.len <- 0;
    b.nevents <- 0
  in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let k = min chunk (n - !off) in
    let fed = ref 0 in
    while !fed < k do
      fed := !fed + Pc_trace.decoder_fill d b ~off:(!off + !fed) ~len:(k - !fed) s;
      drain ()
    done;
    off := !off + k
  done;
  (List.rev !got, Pc_trace.decoder_pending d)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let gen_stream =
  (* any format; v1/v2 carry blocks only. Starts span the whole int
     range now and then, so 9-byte varints and wrapping deltas occur. *)
  let open QCheck.Gen in
  let start = frequency [ (8, int_range 0 0xFFFFF); (1, int) ] in
  let block = map2 (fun start insns -> Pc_trace.Block { start; insns }) start (int_range 0 8) in
  let ev =
    frequency
      [ (6, block);
        (1, map (fun asid -> Pc_trace.Switch { asid }) (int_range 0 3));
        (1, map (fun asid -> Pc_trace.Invalidate { asid }) (int_range 0 3));
        (1, return Pc_trace.Interrupt) ]
  in
  oneofl [ Pc_trace.V1; Pc_trace.V2; Pc_trace.V3 ] >>= fun format ->
  list_size (int_range 0 200) (if format = Pc_trace.V3 then ev else block)
  >|= fun events -> bytes_of_events ~format events

let prop_decoder_equals_fold =
  (* any chunking of any stream, at any output capacity, and any prefix
     of it: the core decodes exactly what one whole feed of the same
     bytes does and parks the same tail; on the whole stream that is the
     whole-file fold, and the event-level decoder_feed agrees *)
  QCheck.Test.make ~name:"streaming decode == fold_events (v1/v2/v3)" ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad gen_stream
           (oneof [ int_range 1 16; oneofl [ 64; 100_000 ] ])
           (oneof [ int_range 1 8; return 4096 ])
           (float_bound_inclusive 1.0)))
    (fun (s, chunk, cap, frac) ->
      let whole = stamped_of_bytes s in
      let cut = int_of_float (frac *. float_of_int (String.length s)) in
      let t = String.sub s 0 cut in
      let got, pending = core_decode ~chunk ~cap t in
      let one_feed = core_decode ~chunk:(max 1 cut) ~cap:(cut + 1) t in
      (got, pending) = one_feed
      && is_prefix got whole
      && (cut < String.length s || (got = whole && pending = 0))
      && decode_chunked chunk s = whole)

let test_decode_allocation () =
  (* a whole-file decode allocates its two output arrays and O(dictionary)
     words — nothing per record *)
  let n = 100_000 in
  let events =
    List.init n (fun i ->
        Pc_trace.Block { start = 0x8048000 + (64 * (i * 7 mod 61)); insns = 1 + (i mod 5) })
  in
  let s = bytes_of_events ~format:Pc_trace.V2 events in
  let words () =
    (* [Gc.minor_words] is exact; the quick_stat fields are as of the
       last collection *)
    let st = Gc.quick_stat () in
    Gc.minor_words () +. st.Gc.major_words -. st.Gc.promoted_words
  in
  (* settle the counters: a collection first, so no earlier work (the
     channels that wrote and read the stream) is charged to the decode *)
  Gc.full_major ();
  let w0 = words () in
  let starts, _, len = Pc_trace.blocks_of_string s in
  let w = words () -. w0 in
  check Alcotest.int "blocks" n len;
  let outputs = 2 * (Array.length starts + 1) in
  check Alcotest.bool
    (Printf.sprintf "%.0f words allocated, outputs %d" w outputs)
    true
    (w <= float_of_int (outputs + 4096))

let test_decoder_v1_v2 () =
  let records = [ (0x100, 1); (0x90, 4); (0x100, 1); (0x2000, 0) ] in
  let events = List.map (fun (start, insns) -> Pc_trace.Block { start; insns }) records in
  List.iter
    (fun format ->
      let s = bytes_of_events ~format events in
      List.iter
        (fun chunk ->
          check
            Alcotest.(list (pair int (testable (fun fmt _ -> Format.fprintf fmt "<event>") ( = ))))
            "v1/v2 chunked decode"
            (List.map (fun ev -> (0, ev)) events)
            (decode_chunked chunk s))
        [ 1; 5; 1000 ])
    [ Pc_trace.V1; Pc_trace.V2 ]

let test_decoder_errors () =
  (* foreign magic poisons the decoder *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "foreign magic" (Pc_trace.Corrupt "bad magic")
    (fun () -> Pc_trace.decoder_feed d "FOOBARBAZ" (fun ~asid:_ _ -> ()));
  (* a short foreign prefix is already classifiable *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "short foreign prefix" (Pc_trace.Corrupt "bad magic")
    (fun () -> Pc_trace.decoder_feed d "FOOBAR" (fun ~asid:_ _ -> ()));
  (* finish before a full magic: truncated header, idempotent *)
  let d = Pc_trace.decoder () in
  Pc_trace.decoder_feed d "PCT" (fun ~asid:_ _ -> ());
  check Alcotest.bool "format unknown" true (Pc_trace.decoder_format d = None);
  Alcotest.check_raises "finish mid-magic"
    (Pc_trace.Corrupt "truncated header") (fun () ->
      Pc_trace.decoder_finish d);
  (* finish mid-record: truncated varint *)
  let s = bytes_of_events [ Pc_trace.Block { start = 0x123456; insns = 7 } ] in
  let d = Pc_trace.decoder () in
  Pc_trace.decoder_feed d ~len:(String.length s - 1) s (fun ~asid:_ _ -> ());
  Alcotest.check_raises "finish mid-record"
    (Pc_trace.Corrupt "truncated varint") (fun () -> Pc_trace.decoder_finish d);
  (* empty stream *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "empty stream" (Pc_trace.Corrupt "truncated header")
    (fun () -> Pc_trace.decoder_finish d)

(* ---------------- non-seekable trace I/O ---------------- *)

(* the satellite-1 regression: a PCTR2 stream arriving through a FIFO —
   where in_channel_length cannot work — must read and decode exactly
   like the same bytes in a regular file *)
let test_read_all_fifo () =
  let events =
    List.init 64 (fun i -> Pc_trace.Block { start = 0x1000 + (8 * (i mod 5)); insns = 2 })
  in
  let s = bytes_of_events ~format:Pc_trace.V2 events in
  let fifo = Filename.temp_file "tea_test_fifo" ".trc" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect ~finally:(fun () -> try Sys.remove fifo with Sys_error _ -> ())
  @@ fun () ->
  let writer =
    Domain.spawn (fun () ->
        let oc = open_out_bin fifo in
        output_string oc s;
        close_out oc)
  in
  let got = Pc_trace.read_all fifo in
  Domain.join writer;
  check Alcotest.string "fifo bytes == file bytes" s got;
  check Alcotest.int "decodes" (List.length events)
    (List.length (stamped_of_bytes got))

(* ---------------- the daemon ---------------- *)

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

let t1 =
  Trace.linear ~id:0 ~kind:"test" [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

let fixture_packed () = Packed.freeze (Builder.build [ t1; t2 ])

(* a repacked+fused variant tuned on the fixture's own hot loop *)
let fixture_tuned () =
  let packed = fixture_packed () in
  let starts =
    Array.init 60 (fun i ->
        List.nth [ 0x100; 0x200; 0x300; 0x400; 0x300 ] (i mod 5))
  in
  let packed =
    Tea_opt.Repack.repack packed
      (Tea_opt.Repack.collect packed starts ~len:(Array.length starts))
  in
  let prof = Tea_opt.Repack.collect packed starts ~len:(Array.length starts) in
  Tea_opt.Fuse.fuse ~profile:prof packed

let sock_path () =
  let p = Filename.temp_file "tea_test_serve" ".sock" in
  Sys.remove p;
  p

(* offline reference for one session's bytes: the whole-file decode path
   through a fresh Multi_replayer over a dup of the same image *)
let offline_of_bytes image s =
  with_tmp @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let m =
    Multi.replay_events (fun _ -> Replayer.create_packed (Packed.dup image)) path
  in
  Profile.merge_all (List.map snd (Multi.snapshots m))

(* Run a daemon over [streams] (raw trace bytes), all sessions open and
   interleaved concurrently from this domain in [chunk]-byte data frames,
   plus one mid-stream disconnect per element of [aborts] (a prefix of
   bytes sent with no end-of-stream frame). Returns the fleet profile,
   the daemon's own offline differential, and each session's reply. *)
let serve_sessions ~jobs ~image ?(chunk = 5) ?(aborts = []) streams =
  let n = List.length streams + List.length aborts in
  let srv =
    Server.create ~offline_check:true ~jobs ~image
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:n srv) in
  let fds = List.map (fun _ -> Frame.connect (Server.addr srv)) streams in
  let abort_fds = List.map (fun _ -> Frame.connect (Server.addr srv)) aborts in
  (* interleave: one chunk per session per lap, so all sessions are
     mid-stream at the server simultaneously, with frames splitting
     records (and the magic) at arbitrary byte offsets *)
  let offs = Array.make (List.length streams) 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iteri
      (fun i (fd, s) ->
        let len = String.length s in
        if offs.(i) < len then begin
          let k = min chunk (len - offs.(i)) in
          Frame.send fd Frame.tag_data (String.sub s offs.(i) k);
          offs.(i) <- offs.(i) + k;
          progressed := true
        end)
      (List.combine fds streams)
  done;
  (* the disconnects: a prefix, then a close with no end frame *)
  List.iter2
    (fun fd s ->
      let k = min 40 (String.length s) in
      if k > 0 then Frame.send fd Frame.tag_data (String.sub s 0 k);
      Unix.close fd)
    abort_fds aborts;
  List.iter (fun fd -> Frame.send fd Frame.tag_end "") fds;
  let replies =
    List.map
      (fun fd ->
        match Frame.recv fd with
        | Some f when f.Frame.tag = Frame.tag_profile ->
            Frame.decode_profile f.Frame.payload
        | Some f -> Alcotest.failf "unexpected reply tag %C" f.Frame.tag
        | None -> Alcotest.fail "server closed without a reply")
      fds
  in
  List.iter Unix.close fds;
  Domain.join driver;
  check Alcotest.int "completed" (List.length streams) (Server.completed srv);
  check Alcotest.int "disconnected" (List.length aborts)
    (Server.disconnected srv);
  (Server.fleet_profile srv, Server.offline_profile srv, replies)

let mixed_streams () =
  (* v2 block-only sessions and v3 event sessions, some hitting the
     fixture's traces, some foreign addresses *)
  let v2 hot =
    bytes_of_events ~format:Pc_trace.V2
      (List.init 40 (fun i ->
           Pc_trace.Block
             { start = List.nth hot (i mod List.length hot); insns = 1 }))
  in
  let v3 =
    bytes_of_events
      [ Pc_trace.Block { start = 0x100; insns = 1 };
        Pc_trace.Switch { asid = 2 };
        Pc_trace.Block { start = 0x400; insns = 1 };
        Pc_trace.Block { start = 0x300; insns = 1 };
        Pc_trace.Interrupt;
        Pc_trace.Switch { asid = 0 };
        Pc_trace.Block { start = 0x200; insns = 1 };
        Pc_trace.Invalidate { asid = 2 };
        Pc_trace.Switch { asid = 2 };
        Pc_trace.Block { start = 0x400; insns = 1 } ]
  in
  [ v2 [ 0x100; 0x200; 0x300 ];
    v2 [ 0x400; 0x300 ];
    v2 [ 0x100; 0x900; 0x200 ];
    v2 [ 0x5000 ];
    v3;
    v3;
    v2 [ 0x300; 0x400 ];
    v3 ]

let test_daemon_gate () =
  (* the acceptance gate: >= 8 concurrent sessions, mixed formats, one
     mid-stream disconnect, fleet == offline at jobs 1/2/4 — on the flat
     and the repacked+fused image *)
  List.iter
    (fun image_of ->
      let streams = mixed_streams () in
      let expect =
        Profile.merge_all (List.map (offline_of_bytes (image_of ())) streams)
      in
      List.iter
        (fun jobs ->
          let fleet, offline, replies =
            serve_sessions ~jobs ~image:(image_of ()) ~aborts:[ List.hd streams ]
              streams
          in
          check profile
            (Printf.sprintf "fleet == offline (jobs %d)" jobs)
            offline fleet;
          check profile
            (Printf.sprintf "fleet == independent reference (jobs %d)" jobs)
            expect fleet;
          (* each session's reply is its own stream's offline profile *)
          List.iter2
            (fun reply s ->
              check profile "session reply == per-stream offline"
                (offline_of_bytes (image_of ()) s)
                reply)
            replies streams)
        [ 1; 2; 4 ])
    [ fixture_packed; fixture_tuned ]

let test_daemon_disconnect_isolation () =
  (* the same streams with and without a rude client: identical fleet *)
  let streams = mixed_streams () in
  let image = fixture_packed () in
  let clean, _, _ = serve_sessions ~jobs:2 ~image streams in
  let image = fixture_packed () in
  let rude, _, _ =
    serve_sessions ~jobs:2 ~image
      ~aborts:[ List.hd streams; List.nth streams 4 ]
      streams
  in
  check profile "disconnects do not perturb the fleet" clean rude

let test_daemon_client_module () =
  (* the Client convenience wrapper against a live daemon *)
  let image = fixture_packed () in
  let srv =
    Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let s = List.hd (mixed_streams ()) in
  let p = Client.replay_string ~chunk:3 (Server.addr srv) s in
  check profile "client profile" (offline_of_bytes image s) p;
  (* a corrupt stream gets an error reply, not a hang *)
  (match Client.replay_string (Server.addr srv) "FOOBARBAZ" with
  | _ -> Alcotest.fail "corrupt stream must be rejected"
  | exception Client.Server_error _ -> ());
  Domain.join driver;
  check Alcotest.int "one completed" 1 (Server.completed srv);
  check Alcotest.int "one rejected" 1 (Server.disconnected srv)

let test_daemon_asid_cap () =
  (* one Switch + Block per asid: a session may replay up to
     max_session_asids address spaces; one more gets an error reply and
     leaves the fleet untouched *)
  let stream n =
    bytes_of_events
      (List.concat
         (List.init n (fun a ->
              [ Pc_trace.Switch { asid = a + 1 };
                Pc_trace.Block { start = 0x100; insns = 1 } ])))
  in
  let image = fixture_packed () in
  let srv = Server.create ~jobs:1 ~image (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let at_cap = stream Server.max_session_asids in
  let p = Client.replay_string (Server.addr srv) at_cap in
  check profile "at the cap: replayed" (offline_of_bytes image at_cap) p;
  (match
     Client.replay_string (Server.addr srv)
       (stream (Server.max_session_asids + 1))
   with
  | _ -> Alcotest.fail "a session past the asid cap must be rejected"
  | exception Client.Server_error _ -> ());
  Domain.join driver;
  check Alcotest.int "one completed" 1 (Server.completed srv);
  check Alcotest.int "one rejected" 1 (Server.disconnected srv);
  check profile "fleet holds only the capped session" p
    (Server.fleet_profile srv)

let prop_daemon_random_streams =
  (* satellite 4's differential: random event streams through concurrent
     sessions vs the sequential offline merge, cycling jobs 1/2/4 *)
  QCheck.Test.make ~name:"daemon fleet == offline on random streams"
    ~count:10
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 4) gen_events)
           (oneofl [ 1; 2; 4 ])))
    (fun (sessions, jobs) ->
      let streams = List.map (fun evs -> bytes_of_events evs) sessions in
      let image = fixture_packed () in
      let expect =
        Profile.merge_all (List.map (offline_of_bytes image) streams)
      in
      let fleet, offline, _ = serve_sessions ~jobs ~image streams in
      Profile.equal fleet offline && Profile.equal fleet expect)

let () =
  Alcotest.run "tea_serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip any chunking" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "hostile length" `Quick test_frame_hostile_length;
          Alcotest.test_case "profile varint cap" `Quick test_frame_varint_cap;
          Alcotest.test_case "fd send/recv" `Quick test_frame_fd_helpers;
          qtest prop_profile_codec;
        ] );
      ( "decoder",
        [
          qtest prop_decoder_equals_fold;
          Alcotest.test_case "v1/v2 streams" `Quick test_decoder_v1_v2;
          Alcotest.test_case "errors" `Quick test_decoder_errors;
          Alcotest.test_case "whole-file decode allocation" `Quick
            test_decode_allocation;
        ] );
      ( "io",
        [ Alcotest.test_case "read_all through a FIFO" `Quick test_read_all_fifo ] );
      ( "daemon",
        [
          Alcotest.test_case "gate: fleet == offline" `Quick test_daemon_gate;
          Alcotest.test_case "disconnect isolation" `Quick
            test_daemon_disconnect_isolation;
          Alcotest.test_case "client module" `Quick test_daemon_client_module;
          Alcotest.test_case "asid cap per session" `Quick test_daemon_asid_cap;
          qtest prop_daemon_random_streams;
        ] );
    ]
