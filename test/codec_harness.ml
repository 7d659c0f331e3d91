(* Shared adversarial property harness for the repo's CRC-framed
   codecs.  The WAL record codec ([Ei_wal.Frame]) and the network wire
   codec ([Ei_net.Wire]) carry their payloads in one frame envelope
   ([Ei_wal.Envelope]) —

     u32 payload_len | u32 crc32(payload) | payload

   — so they share one battery of adversaries: every single-bit flip,
   every truncation, and a set of length-field lies.  The framing
   arithmetic itself (header, length bounds, CRC) is attacked once,
   against [Envelope.decode] directly ([envelope_cases], run by the WAL
   suite); each codec plugs in as an encoder plus a [verdict] view of
   its decoder to show its tags and fields add no way in.  The contract
   under attack is the same for all ("a damaged frame is never
   accepted"), while what rejection looks like differs — the WAL
   decoder works on a complete file image, so everything is
   [Rejected]; the incremental decoders may legitimately answer
   [Incomplete] (more bytes could still arrive) as long as they never
   accept.

   [golden] reads the frame bytes committed in [expected/frames.hex]:
   encoder output pinned byte for byte, which a round trip cannot do. *)

type verdict = Accepted | Rejected | Incomplete

let verdict_name = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Incomplete -> "incomplete"

let flip_bit s i =
  let b = Bytes.of_string s in
  Bytes.set b (i / 8)
    (Char.chr (Char.code (Bytes.get b (i / 8)) lxor (1 lsl (i mod 8))));
  Bytes.to_string b

(* Rewrite the little-endian u32 length field at offset 0. *)
let patch_len s v =
  let b = Bytes.of_string s in
  Bytes.set_int32_le b 0 (Int32.of_int (v land 0xffffffff));
  Bytes.to_string b

(* Exhaustive single-bit-flip sweep: CRC-32 guarantees detection of any
   single-bit error within a frame, so every flip of every encoded
   vector must fail [allowed]'s complement — i.e. never be [Accepted]
   and never fall outside the codec's legal failure modes. *)
let check_bit_flips ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      for i = 0 to (String.length s * 8) - 1 do
        let verd = verdict (flip_bit s i) in
        if not (allowed verd) then
          Alcotest.failf "%s: bit flip %d of %s was %s" what i (describe v)
            (verdict_name verd)
      done)
    values

(* Every proper prefix of a frame must be refused (or held as
   incomplete) — never decoded to a value. *)
let check_truncations ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      for n = 0 to String.length s - 1 do
        let verd = verdict (String.sub s 0 n) in
        if not (allowed verd) then
          Alcotest.failf "%s: truncation to %d of %s was %s" what n
            (describe v) (verdict_name verd)
      done)
    values

(* Length-field lies: shorter than the payload (the CRC must catch the
   misframing), longer (must wait or reject, never read past the
   payload into garbage), and implausible extremes (must be rejected
   outright — the bounded-buffering defense). *)
let check_length_lies ~what ~describe ~encode ~verdict ~allowed values =
  List.iter
    (fun v ->
      let s = encode v in
      let real = String.length s - 8 in
      let lies =
        [ 0; 1; real - 1; real + 1; real + 9; 0x7fffffff; 0xffffffff ]
      in
      List.iter
        (fun lie ->
          if lie <> real && lie >= 0 then begin
            let verd = verdict (patch_len s lie) in
            if not (allowed verd) then
              Alcotest.failf "%s: length lie %d (real %d) of %s was %s" what
                lie real (describe v) (verdict_name verd)
          end)
        lies)
    values

(* Randomized single-bit flip as a qcheck property over the codec's own
   generator — the probabilistic arm backing the exhaustive fixed-vector
   sweeps above. *)
let prop_random_flip ~name ~arb ~encode ~verdict ~allowed =
  QCheck.Test.make ~name ~count:500
    QCheck.(pair arb (make QCheck.Gen.(int_bound 100_000)))
    (fun (v, i) ->
      let s = encode v in
      allowed (verdict (flip_bit s (i mod (String.length s * 8)))))

(* --- Golden frames ----------------------------------------------------- *)

(* [golden name] is the frame recorded as "name hex" in
   [expected/frames.hex], which dune copies next to the test binaries. *)
let golden =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "expected/frames.hex"
  in
  let table =
    lazy
      (In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | [ name; hex ] -> Some (name, Ei_util.Key.of_hex hex)
             | _ -> None))
  in
  fun name ->
    match List.assoc_opt name (Lazy.force table) with
    | Some frame -> frame
    | None -> Alcotest.failf "no golden frame %s" name

(* --- The envelope itself ---------------------------------------------- *)

module Envelope = Ei_wal.Envelope

(* Test payloads are one key field each, [u16 len | bytes], so the
   parser ([Envelope.key]) consumes a payload exactly; their lengths
   span the bounds [env_min, env_max]. *)
let env_min = 2
let env_max = 2 + 62
let env_keys = [ ""; "k"; "k0000001"; String.make 62 '\xa5' ]

(* One frame carrying [payload] (CRC-valid whatever the payload). *)
let frame payload =
  let b = Buffer.create (Envelope.header_bytes + String.length payload) in
  Envelope.add b payload;
  Buffer.contents b

let env_encode k =
  let p = Buffer.create 64 in
  Envelope.add_key p k;
  frame (Buffer.contents p)

let env_decode ?(pos = 0) s =
  Envelope.decode ~min:env_min ~max:env_max s ~pos Envelope.key

let env_verdict s =
  match env_decode s with
  | Envelope.Done _ -> Accepted
  | Envelope.More -> Incomplete
  | Envelope.Corrupt _ -> Rejected

let env_describe k = Printf.sprintf "%d-byte key" (String.length k)

let never_accepted = function Rejected | Incomplete -> true | Accepted -> false
let incomplete = function Incomplete -> true | Rejected | Accepted -> false

let test_envelope_stream () =
  let frames = List.map env_encode env_keys in
  let s = String.concat "" frames in
  let rec go pos = function
    | [] -> Alcotest.(check int) "stream fully consumed" (String.length s) pos
    | k :: rest -> (
      match env_decode s ~pos with
      | Envelope.Done (k', next) ->
        Alcotest.(check string) "payload" k k';
        go next rest
      | Envelope.More | Envelope.Corrupt _ ->
        Alcotest.failf "frame at %d refused" pos)
  in
  go 0 env_keys;
  (* A CRC-valid payload whose parser stops short is refused. *)
  (match env_decode (frame "\x01\x00kX") with
  | Envelope.Corrupt _ -> ()
  | Envelope.Done _ | Envelope.More ->
    Alcotest.fail "envelope: unread trailing payload byte accepted");
  List.iter
    (fun pos ->
      match env_decode s ~pos with
      | Envelope.Corrupt _ -> ()
      | _ -> Alcotest.failf "position %d accepted" pos)
    [ -1; String.length s + 1 ]

let test_envelope_bit_flips () =
  check_bit_flips ~what:"envelope" ~describe:env_describe ~encode:env_encode
    ~verdict:env_verdict ~allowed:never_accepted env_keys

let test_envelope_truncations () =
  check_truncations ~what:"envelope" ~describe:env_describe
    ~encode:env_encode ~verdict:env_verdict ~allowed:incomplete env_keys

(* Beyond the shared lies: a length just outside either bound, and the
   largest u32, are refused outright, before any byte is waited for. *)
let test_envelope_length_lies () =
  check_length_lies ~what:"envelope" ~describe:env_describe ~encode:env_encode
    ~verdict:env_verdict ~allowed:never_accepted env_keys;
  List.iter
    (fun k ->
      List.iter
        (fun lie ->
          match env_verdict (patch_len (env_encode k) lie) with
          | Rejected -> ()
          | v ->
            Alcotest.failf "envelope: length %d of %s was %s" lie
              (env_describe k) (verdict_name v))
        [ env_min - 1; env_max + 1; 0xffffffff ])
    env_keys;
  (* An honest frame below [min] is refused by the bound, not by its
     parser, which here would read the one byte and accept it. *)
  match
    Envelope.decode ~min:env_min ~max:env_max (frame "\x07") ~pos:0
      Envelope.u8
  with
  | Envelope.Corrupt _ -> ()
  | Envelope.Done _ | Envelope.More ->
    Alcotest.fail "envelope: 1-byte payload below min not refused"

let envelope_cases =
  [
    Alcotest.test_case "frame stream, positions, trailing bytes" `Quick
      test_envelope_stream;
    Alcotest.test_case "every bit flip refused" `Quick test_envelope_bit_flips;
    Alcotest.test_case "every truncation incomplete" `Quick
      test_envelope_truncations;
    Alcotest.test_case "length lies and bounds refused" `Quick
      test_envelope_length_lies;
  ]
