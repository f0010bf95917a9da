type format = V1 | V2 | V3

type event =
  | Block of { start : int; insns : int }
  | Switch of { asid : int }
  | Invalidate of { asid : int }
  | Interrupt

type writer = {
  oc : out_channel;
  format : format;
  dict : (int * int, int) Hashtbl.t; (* v2/v3: (delta, insns) -> token *)
  mutable next_id : int;
  mutable prev : int; (* current asid's previous start address *)
  mutable cur_asid : int;
  parked : (int, int) Hashtbl.t; (* v3: prev of every non-current asid *)
  mutable closed : bool;
}

let magic = "TEAPC1\n"

let magic_v2 = "PCTR2\n"

let magic_v3 = "PCTR3\n"

(* v3 reserves the low tokens for events — they double as the decoder's
   event kinds — and dictionary ids start above them. v2 has no events,
   so only the literal escape 0 is reserved. *)
let tok_literal = 0

let ev_switch = 1

let ev_invalidate = 2

let ev_interrupt = 3

let first_dict_id = function V1 | V2 -> 1 | V3 -> ev_interrupt + 1

(* Decoder memory bound: a hostile or degenerate stream registers at
   most this many dictionary pairs; later literals simply stay
   unregistered (still decodable, just not back-referenced). *)
let dict_cap = 1 lsl 20

exception Corrupt of string

let open_writer ?(format = V2) path =
  let oc = open_out_bin path in
  output_string oc
    (match format with V1 -> magic | V2 -> magic_v2 | V3 -> magic_v3);
  {
    oc;
    format;
    dict = Hashtbl.create 256;
    next_id = first_dict_id format;
    prev = 0;
    cur_asid = 0;
    parked = Hashtbl.create 8;
    closed = false;
  }

(* Zig-zag over the whole 63-bit [int]: the sign moves to bit 0 and the
   result is an unsigned 63-bit value, so every delta — the wrapped
   difference of any two starts — encodes and every start roundtrips. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let unzigzag u = (u lsr 1) lxor -(u land 1)

(* LEB128 over an unsigned 63-bit value: at most 9 bytes. *)
let rec write_varint oc v =
  if v land lnot 0x7F = 0 then output_byte oc v
  else begin
    output_byte oc (0x80 lor (v land 0x7F));
    write_varint oc (v lsr 7)
  end

let write w ~start ~insns =
  if w.closed then invalid_arg "Pc_trace.write: writer closed";
  if insns < 0 then invalid_arg "Pc_trace.write: negative instruction count";
  let delta = start - w.prev in
  (match w.format with
  | V1 ->
      write_varint w.oc (zigzag delta);
      write_varint w.oc insns
  | V2 | V3 -> (
      (* Dictionary pair-coding: a (delta, insns) pair seen before is one
         small varint token; loops replay the same few pairs over and
         over, so steady-state records cost ~1 byte instead of the
         v1 delta + count pair. Token 0 escapes to a literal record,
         which registers the pair under the next free token. *)
      match Hashtbl.find_opt w.dict (delta, insns) with
      | Some id -> write_varint w.oc id
      | None ->
          write_varint w.oc tok_literal;
          write_varint w.oc (zigzag delta);
          write_varint w.oc insns;
          if w.next_id < dict_cap then begin
            Hashtbl.add w.dict (delta, insns) w.next_id;
            w.next_id <- w.next_id + 1
          end));
  w.prev <- start

let require_v3 w what =
  if w.closed then invalid_arg ("Pc_trace." ^ what ^ ": writer closed");
  if w.format <> V3 then
    invalid_arg ("Pc_trace." ^ what ^ ": events require a V3 writer")

(* Each asid runs its own delta chain — interleaving must not destroy the
   in-loop locality the dictionary coder feeds on — so a switch parks the
   outgoing asid's [prev] and restores (or zeroes) the incoming one's. *)
let switch_asid w asid =
  require_v3 w "switch_asid";
  if asid < 0 then invalid_arg "Pc_trace.switch_asid: negative asid";
  write_varint w.oc ev_switch;
  write_varint w.oc asid;
  if asid <> w.cur_asid then begin
    Hashtbl.replace w.parked w.cur_asid w.prev;
    w.prev <- (match Hashtbl.find_opt w.parked asid with Some p -> p | None -> 0);
    w.cur_asid <- asid
  end

let invalidate w asid =
  require_v3 w "invalidate";
  if asid < 0 then invalid_arg "Pc_trace.invalidate: negative asid";
  write_varint w.oc ev_invalidate;
  write_varint w.oc asid

let interrupt w =
  require_v3 w "interrupt";
  write_varint w.oc ev_interrupt

let write_event w = function
  | Block { start; insns } -> write w ~start ~insns
  | Switch { asid } -> switch_asid w asid
  | Invalidate { asid } -> invalidate w asid
  | Interrupt -> interrupt w

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    close_out w.oc
  end

(* Whole-input slurp. [in_channel_length] only works on seekable files —
   on a pipe, FIFO, socket or tty the underlying lseek fails — so those
   fall back to chunked reads until EOF. ["-"] reads standard input. *)
let read_channel ic =
  let chunked () =
    let chunk = 65536 in
    let buf = Buffer.create chunk in
    let b = Bytes.create chunk in
    let rec go () =
      let k = input ic b 0 chunk in
      if k > 0 then begin
        Buffer.add_subbytes buf b 0 k;
        go ()
      end
    in
    go ();
    Buffer.contents buf
  in
  match in_channel_length ic with
  | exception Sys_error _ -> chunked ()
  | n when n <= 0 -> chunked ()
  | n -> really_input_string ic n

let read_all path =
  if path = "-" then begin
    set_binary_mode_in stdin true;
    read_channel stdin
  end
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

(* Magic classification, shared by the whole-file sniff and the streaming
   decoder. A prefix is [`Short] only while it could still grow into one
   of the magics — a short-but-foreign input is [Corrupt "bad magic"],
   not "truncated header". *)
let classify_magic s len =
  let matches m =
    let ml = String.length m in
    len >= ml && String.sub s 0 ml = m
  in
  let could_grow_into m =
    len < String.length m && String.sub s 0 len = String.sub m 0 len
  in
  if matches magic_v2 then `Found (2, String.length magic_v2)
  else if matches magic_v3 then `Found (3, String.length magic_v3)
  else if matches magic then `Found (1, String.length magic)
  else if could_grow_into magic_v2 || could_grow_into magic_v3
          || could_grow_into magic then `Short
  else raise (Corrupt "bad magic")

let sniff s =
  match classify_magic s (String.length s) with
  | `Found vp -> vp
  | `Short -> raise (Corrupt "truncated header")

(* ---- decoding: one resumable core (see the .mli); every reader below
   is a thin wrapper over it ---- *)

type batch = {
  starts : int array;
  insns : int array;
  mutable len : int;
  events : int array;
  mutable nevents : int;
}

let batch ~blocks ~events =
  if blocks < 1 || events < 1 then
    invalid_arg "Pc_trace.batch: capacities must be >= 1";
  {
    starts = Array.make blocks 0;
    insns = Array.make blocks 0;
    len = 0;
    events = Array.make (3 * events) 0;
    nevents = 0;
  }

let clear b =
  b.len <- 0;
  b.nevents <- 0

(* The longest record: an over-long (9-byte) literal token plus two
   9-byte varints. A pending tail is always shorter. *)
let tail_cap = 32

type decoder = {
  mutable version : int; (* 0 until the magic is sniffed *)
  mutable ddelta : int array; (* dictionary pairs, by token *)
  mutable dinsns : int array;
  mutable dnext : int; (* next free token *)
  mutable prev : int; (* current asid's previous start address *)
  mutable asid : int;
  parked : (int, int) Hashtbl.t; (* prev of every non-current asid *)
  tail : Bytes.t; (* [0..ntail): the magic or record split by a feed *)
  mutable ntail : int;
  mutable vend : int; (* end of the last varint read; -1: input ran out *)
  mutable full : bool; (* the last record loop stopped on a full batch *)
  mutable finished : bool;
}

let decoder () =
  {
    version = 0;
    ddelta = Array.make 256 0;
    dinsns = Array.make 256 0;
    dnext = 0;
    prev = 0;
    asid = 0;
    parked = Hashtbl.create 8;
    tail = Bytes.create tail_cap;
    ntail = 0;
    vend = 0;
    full = false;
    finished = false;
  }

let decoder_format d =
  match d.version with 1 -> Some V1 | 2 -> Some V2 | 3 -> Some V3 | _ -> None

let decoder_pending d = d.ntail

(* A varint of at most 9 bytes — the unsigned 63 bits the writer emits —
   at [i]. Its end goes to [d.vend], or -1 if the input ends inside it. *)
let rec varint_at d s i lim shift acc =
  if i >= lim then begin
    d.vend <- -1;
    acc
  end
  else
    let c = Char.code (String.unsafe_get s i) in
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if c < 0x80 then begin
      d.vend <- i + 1;
      acc
    end
    else if shift = 56 then raise (Corrupt "varint too long")
    else varint_at d s (i + 1) lim (shift + 7) acc

let varint d s i lim = varint_at d s i lim 0 0

let register d delta insns =
  if d.dnext < dict_cap then begin
    if d.dnext = Array.length d.ddelta then begin
      let grow a = Array.append a (Array.make d.dnext 0) in
      d.ddelta <- grow d.ddelta;
      d.dinsns <- grow d.dinsns
    end;
    d.ddelta.(d.dnext) <- delta;
    d.dinsns.(d.dnext) <- insns;
    d.dnext <- d.dnext + 1
  end

(* The record loop: decode whole records from [s.[p..lim)] into [b]
   until the input ends, [b] is full ([d.full]) or a record is split by
   the end of the input ([d.vend] < 0); returns the record boundary it
   stopped at. A record's varints are all read before anything commits.
   A v1 record is a v2 literal without the token. *)
let records d b s p lim =
  let starts = b.starts and insns = b.insns in
  let v1 = d.version = 1 and v3 = d.version = 3 in
  let tok_lo = if v1 then max_int else first_dict_id (if v3 then V3 else V2) in
  let p = ref p and n = ref b.len and prev = ref d.prev in
  d.full <- false;
  d.vend <- 0;
  while !p < lim && d.vend >= 0 && not d.full do
    let q = !p in
    (* the fast path: a dictionary token of one or two bytes *)
    let c = Char.code (String.unsafe_get s q) in
    let tok =
      if c < 0x80 then c
      else if q + 1 < lim && Char.code (String.unsafe_get s (q + 1)) < 0x80 then
        (c land 0x7F) lor (Char.code (String.unsafe_get s (q + 1)) lsl 7)
      else -1
    in
    if !n = Array.length starts then d.full <- true
    else if tok >= tok_lo && tok < d.dnext then begin
      prev := !prev + Array.unsafe_get d.ddelta tok;
      Array.unsafe_set starts !n !prev;
      Array.unsafe_set insns !n (Array.unsafe_get d.dinsns tok);
      incr n;
      p := if c < 0x80 then q + 1 else q + 2
    end
    else begin
      (* a block record sets [ins] >= 0 *)
      let delta = ref 0 and ins = ref (-1) in
      let tok = if v1 then tok_literal else varint d s q lim in
      let at = if v1 then q else d.vend in
      if d.vend < 0 then ()
      else if tok = tok_literal then begin
        let z = varint d s at lim in
        let i = if d.vend < 0 then 0 else varint d s d.vend lim in
        if d.vend >= 0 then begin
          if i < 0 then raise (Corrupt "negative instruction count");
          delta := unzigzag z;
          ins := i;
          if not v1 then register d !delta i
        end
      end
      else if v3 && tok > 0 && tok <= ev_interrupt then begin
        let e = 3 * b.nevents in
        if e = Array.length b.events then d.full <- true
        else begin
          let x = if tok = ev_interrupt then d.asid else varint d s at lim in
          if d.vend >= 0 then begin
            if x < 0 then raise (Corrupt "negative asid");
            if tok = ev_switch && x <> d.asid then begin
              Hashtbl.replace d.parked d.asid !prev;
              prev := Option.value ~default:0 (Hashtbl.find_opt d.parked x);
              d.asid <- x
            end;
            b.events.(e) <- !n;
            b.events.(e + 1) <- tok;
            b.events.(e + 2) <- x;
            b.nevents <- b.nevents + 1;
            p := d.vend
          end
        end
      end
      else if tok > 0 && tok < d.dnext then begin
        delta := d.ddelta.(tok);
        ins := d.dinsns.(tok)
      end
      else raise (Corrupt "bad dictionary token");
      if !ins >= 0 then begin
        prev := !prev + !delta;
        starts.(!n) <- !prev;
        insns.(!n) <- !ins;
        incr n;
        p := d.vend
      end
    end
  done;
  d.prev <- !prev;
  b.len <- !n;
  !p

(* Buffer a magic arriving over several feeds; on a complete one, start
   the stream. Returns the input position after the magic's bytes. *)
let sniff_header d s p lim =
  let take = min (lim - p) (String.length magic - d.ntail) in
  Bytes.blit_string s p d.tail d.ntail take;
  let have = d.ntail + take in
  match classify_magic (Bytes.sub_string d.tail 0 have) have with
  | `Short ->
      d.ntail <- have;
      lim
  | `Found (v, hlen) ->
      d.version <- v;
      d.dnext <- first_dict_id (match v with 1 -> V1 | 2 -> V2 | _ -> V3);
      let p = p + hlen - d.ntail in
      d.ntail <- 0;
      p

(* Complete the parked partial record with the head of the new input;
   returns the input position decoding continues from. *)
let resume_tail d b s p lim =
  let old = d.ntail in
  let take = min (lim - p) (tail_cap - old) in
  Bytes.blit_string s p d.tail old take;
  let q = records d b (Bytes.unsafe_to_string d.tail) 0 (old + take) in
  if q > old then begin
    d.ntail <- 0;
    p + q - old
  end
  else if d.full then p
  else begin
    (* still partial: a record is never longer than [tail_cap] *)
    assert (take = lim - p);
    d.ntail <- old + take;
    lim
  end

let decoder_fill d b ?(off = 0) ?len s =
  if d.finished then invalid_arg "Pc_trace.decoder_fill: decoder finished";
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pc_trace.decoder_fill: bad substring";
  let lim = off + len in
  d.full <- false;
  let p = if d.version = 0 then sniff_header d s off lim else off in
  let p = if d.ntail > 0 && p < lim then resume_tail d b s p lim else p in
  let p =
    if d.version = 0 || d.ntail > 0 || d.full then p
    else begin
      let q = records d b s p lim in
      if q < lim && not d.full then begin
        Bytes.blit_string s q d.tail 0 (lim - q);
        d.ntail <- lim - q;
        lim
      end
      else q
    end
  in
  p - off

let decoder_finish d =
  if not d.finished then begin
    if d.version = 0 then raise (Corrupt "truncated header");
    if d.ntail > 0 then raise (Corrupt "truncated varint");
    d.finished <- true
  end

(* Feed through [b], walking each filled batch in stream order: [run b]
   per block run between events, [event] per event. *)
let feed_segments d b ?(off = 0) ?len s ~run ~event =
  let len = match len with Some l -> l | None -> String.length s - off in
  let rec go off len =
    let asid = ref d.asid and lo = ref 0 in
    let k = decoder_fill d b ~off ~len s in
    for e = 0 to b.nevents - 1 do
      let pos = b.events.(3 * e) and kind = b.events.((3 * e) + 1) in
      let x = b.events.((3 * e) + 2) in
      if pos > !lo then run b ~asid:!asid ~off:!lo ~len:(pos - !lo);
      lo := pos;
      if kind = ev_switch then asid := x;
      event ~asid:!asid kind x
    done;
    if b.len > !lo then run b ~asid:!asid ~off:!lo ~len:(b.len - !lo);
    clear b;
    if k < len then go (off + k) (len - k)
  in
  clear b;
  go off len

let event_of kind x =
  if kind = ev_switch then Switch { asid = x }
  else if kind = ev_invalidate then Invalidate { asid = x }
  else Interrupt

(* Callback-level feeds batch at most this many blocks per step. *)
let step_blocks = 4096

let decoder_feed d ?(off = 0) ?len s emit =
  let len = match len with Some l -> l | None -> String.length s - off in
  (* [len] bytes complete at most [len + 1] records *)
  let b = batch ~blocks:(min step_blocks (len + 1)) ~events:(min 256 (len + 1)) in
  feed_segments d b ~off ~len s
    ~run:(fun b ~asid ~off ~len ->
      for i = off to off + len - 1 do
        emit ~asid (Block { start = b.starts.(i); insns = b.insns.(i) })
      done)
    ~event:(fun ~asid kind x -> emit ~asid (event_of kind x))

let iter_segments ?(blocks = step_blocks) s ~run ~event =
  let d = decoder () and b = batch ~blocks ~events:256 in
  feed_segments d b s ~run ~event;
  decoder_finish d

let not_single_stream () =
  raise
    (Corrupt "v3 event stream is not a single PC stream (use fold_events)")

(* Records fit in the payload: every v2/v3 record is at least 1 byte and
   every v1 record at least 2, so a whole-file decode presized from the
   byte count is a single feed that never fills. *)
let capacity s =
  let version, hlen = sniff s in
  let payload = String.length s - hlen in
  max 1 (if version = 1 then payload / 2 else payload)

let blocks_of_string s =
  let d = decoder () in
  let b = batch ~blocks:(capacity s) ~events:1 in
  ignore (decoder_fill d b s);
  if b.nevents > 0 then not_single_stream ();
  decoder_finish d;
  (b.starts, b.insns, b.len)

type run = { starts : int array; insns : int array; len : int }

(* Per-asid demux in two passes over the same bytes: the first sizes
   every run, the second decodes straight into exactly-sized run arrays —
   no growth and no staging copy. Per asid: closed run lengths (newest
   first), their count and the open run's length so far. *)
type demux = {
  mutable lens : int list;
  mutable nruns : int;
  mutable fill : int;
  mutable runs : run array; (* empty in the sizing pass *)
}

let runs_of_string s =
  let table = Hashtbl.create 8 in
  let entry a =
    match Hashtbl.find_opt table a with
    | Some e -> e
    | None ->
        let e = { lens = []; nruns = 0; fill = 0; runs = [||] } in
        Hashtbl.add table a e;
        e
  in
  let cut e =
    if e.fill > 0 then begin
      e.lens <- e.fill :: e.lens;
      e.nruns <- e.nruns + 1;
      e.fill <- 0
    end
  in
  let pass () =
    iter_segments s
      ~run:(fun b ~asid ~off ~len ->
        let e = entry asid in
        if Array.length e.runs > 0 then begin
          let r = e.runs.(e.nruns) in
          Array.blit b.starts off r.starts e.fill len;
          Array.blit b.insns off r.insns e.fill len
        end;
        e.fill <- e.fill + len)
      (* an interrupt's operand is the asid it cuts, as an invalidation's *)
      ~event:(fun ~asid:_ kind x -> if kind <> ev_switch then cut (entry x));
    Hashtbl.iter (fun _ e -> cut e) table
  in
  pass ();
  Hashtbl.iter
    (fun _ e ->
      let run len = { starts = Array.make len 0; insns = Array.make len 0; len } in
      e.runs <- Array.of_list (List.rev_map run e.lens);
      e.lens <- [];
      e.nruns <- 0)
    table;
  pass ();
  Hashtbl.fold
    (fun a e acc -> if e.nruns = 0 then acc else (a, Array.to_list e.runs) :: acc)
    table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fold_events path init f =
  let acc = ref init in
  iter_segments (read_all path)
    ~run:(fun (b : batch) ~asid ~off ~len ->
      for i = off to off + len - 1 do
        acc := f !acc ~asid (Block { start = b.starts.(i); insns = b.insns.(i) })
      done)
    ~event:(fun ~asid kind x -> acc := f !acc ~asid (event_of kind x));
  !acc

(* The single-stream view rejects any event rather than replay an
   interleaved or cut stream against one automaton. *)
let fold path init f =
  let acc = ref init in
  iter_segments (read_all path)
    ~run:(fun (b : batch) ~asid:_ ~off ~len ->
      for i = off to off + len - 1 do
        acc := f !acc ~start:b.starts.(i) ~insns:b.insns.(i)
      done)
    ~event:(fun ~asid:_ _ _ -> not_single_stream ());
  !acc

let length path =
  let n = ref 0 in
  iter_segments (read_all path) ~run:(fun _ ~asid:_ ~off:_ ~len -> n := !n + len)
    ~event:(fun ~asid:_ _ _ -> ());
  !n

let iter_chunks ?(chunk = step_blocks) path f =
  if chunk <= 0 then invalid_arg "Pc_trace.iter_chunks: chunk must be positive";
  iter_segments ~blocks:chunk (read_all path)
    ~run:(fun (b : batch) ~asid:_ ~off:_ ~len ->
      f ~starts:b.starts ~insns:b.insns ~len)
    ~event:(fun ~asid:_ _ _ -> not_single_stream ())

let replay trans path =
  let rep = Replayer.create trans in
  fold path () (fun () ~start ~insns -> Replayer.feed_addr rep ~insns start);
  rep

let replay_packed packed path =
  let rep = Replayer.create_packed packed in
  iter_chunks path (fun ~starts ~insns ~len ->
      Replayer.feed_run rep ~insns starts ~len);
  rep
