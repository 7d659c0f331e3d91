(* Unit and property tests for ei_util: keys, RNG, Zipfian generator. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Zipf = Ei_util.Zipf
module Bench_clock = Ei_util.Bench_clock

let check = Alcotest.check

(* --- Key encoding ------------------------------------------------- *)

let test_int_roundtrip () =
  List.iter
    (fun v -> check Alcotest.int "roundtrip" v (Key.to_int (Key.of_int v)))
    [ 0; 1; 255; 256; 65535; 1_000_000; max_int / 4 ]

let test_int_order () =
  let rng = Rng.stream seed 42 in
  for _ = 1 to 1000 do
    let a = Rng.next_int rng and b = Rng.next_int rng in
    let ka = Key.of_int a and kb = Key.of_int b in
    check Alcotest.int "order preserved" (compare a b)
      (let c = Key.compare ka kb in
       if c < 0 then -1 else if c > 0 then 1 else 0)
  done

let test_pair_order () =
  let k1 = Key.of_int_pair 1 999 and k2 = Key.of_int_pair 2 0 in
  check Alcotest.bool "hi component dominates" true (Key.compare k1 k2 < 0);
  let k3 = Key.of_int_pair 1 5 and k4 = Key.of_int_pair 1 6 in
  check Alcotest.bool "lo breaks ties" true (Key.compare k3 k4 < 0)

let test_bit () =
  (* 0x80 = bit 0 of byte 0 set. *)
  let k = "\x80\x01" in
  check Alcotest.int "msb" 1 (Key.bit k 0);
  check Alcotest.int "bit1" 0 (Key.bit k 1);
  check Alcotest.int "lsb of byte 1" 1 (Key.bit k 15);
  check Alcotest.int "bit 14" 0 (Key.bit k 14)

(* Naive reference for first_diff_bit. *)
let naive_first_diff a b =
  let n = 8 * String.length a in
  let rec loop i =
    if i >= n then None
    else if Key.bit a i <> Key.bit b i then Some i
    else loop (i + 1)
  in
  loop 0

let prop_first_diff =
  QCheck.Test.make ~name:"first_diff_bit matches naive scan" ~count:2000
    QCheck.(pair (string_of_size (Gen.return 8)) (string_of_size (Gen.return 8)))
    (fun (a, b) -> Key.first_diff_bit a b = naive_first_diff a b)

let prop_diff_orders =
  (* If a < b then at the first differing bit, a has 0 and b has 1. *)
  QCheck.Test.make ~name:"first differing bit orders keys" ~count:2000
    QCheck.(pair (string_of_size (Gen.return 6)) (string_of_size (Gen.return 6)))
    (fun (a, b) ->
      match Key.first_diff_bit a b with
      | None -> a = b
      | Some i ->
        if String.compare a b < 0 then Key.bit a i = 0 && Key.bit b i = 1
        else Key.bit a i = 1 && Key.bit b i = 0)

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

(* compare_fast reads keys a word at a time; exercise every length from
   0 to 32 so all word/tail-split combinations are covered, plus pairs
   sharing a random-length prefix (the case binary search hits most). *)
let prop_compare_fast =
  let gen =
    QCheck.Gen.(
      int_bound 32 >>= fun la ->
      int_bound 32 >>= fun lb ->
      string_size (return la) >>= fun a ->
      string_size (return lb) >>= fun b ->
      int_bound (min la lb) >>= fun p ->
      (* With probability 1/2, splice a shared prefix of length p. *)
      bool >|= fun share ->
      if share && p > 0 then (a, String.sub a 0 p ^ String.sub b p (lb - p))
      else (a, b))
  in
  QCheck.Test.make ~name:"compare_fast agrees with String.compare"
    ~count:20_000
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "(%S, %S)" a b)
       gen)
    (fun (a, b) ->
      sign (Key.compare_fast a b) = sign (String.compare a b)
      && sign (Key.compare_fast b a) = sign (String.compare b a)
      && Key.compare_fast a a = 0)

(* Exhaustive corner: equal strings and single-bit differences at every
   byte position for every length 0-32. *)
let test_compare_fast_edges () =
  for len = 0 to 32 do
    let a = String.make len '\x7f' in
    check Alcotest.int (Printf.sprintf "equal len %d" len) 0
      (Key.compare_fast a a);
    for pos = 0 to len - 1 do
      let b = Bytes.of_string a in
      Bytes.set b pos '\x80';
      let b = Bytes.unsafe_to_string b in
      check Alcotest.int
        (Printf.sprintf "diff at %d of %d" pos len)
        (sign (String.compare a b))
        (sign (Key.compare_fast a b))
    done;
    (* Prefix relation: a is a strict prefix of a ^ "x". *)
    let ax = a ^ "x" in
    check Alcotest.int
      (Printf.sprintf "prefix len %d" len)
      (sign (String.compare a ax))
      (sign (Key.compare_fast a ax))
  done

(* compare_at reads a key stored inline in a larger buffer: the key
   sits at a random offset between random junk, so a loop that strays
   outside [off, off + len) changes the answer. *)
let prop_compare_at =
  let gen =
    QCheck.Gen.(
      int_bound 32 >>= fun la ->
      int_bound 32 >>= fun lb ->
      string_size (return la) >>= fun a ->
      string_size (return lb) >>= fun b ->
      int_bound (min la lb) >>= fun p ->
      bool >>= fun share ->
      string_size (int_bound 12) >>= fun pre ->
      string_size (int_bound 12) >|= fun post ->
      let b = if share && p > 0 then String.sub a 0 p ^ String.sub b p (lb - p) else b in
      (a, b, pre, post))
  in
  QCheck.Test.make ~name:"compare_at agrees with String.compare" ~count:20_000
    (QCheck.make
       ~print:(fun (a, b, pre, post) -> Printf.sprintf "(%S, %S, %S, %S)" a b pre post)
       gen)
    (fun (a, b, pre, post) ->
      let buf = Bytes.of_string (pre ^ a ^ post) in
      let off = String.length pre and len = String.length a in
      sign (Key.compare_at buf off len b) = sign (String.compare a b)
      && Key.compare_at buf off len a = 0)

let test_compare_at_bounds () =
  let buf = Bytes.make 16 'k' in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "negative offset" (fun () -> Key.compare_at buf (-1) 8 "kkkkkkkk");
  raises "past the end" (fun () -> Key.compare_at buf 9 8 "kkkkkkkk");
  raises "negative length" (fun () -> Key.compare_at buf 0 (-1) "");
  check Alcotest.int "last slot" 0 (Key.compare_at buf 8 8 "kkkkkkkk")

(* The comparison kernels run on every descent step: they must not
   allocate (no closure, no boxed word) in native code.  [first_diff_bit]
   may allocate only its [Some] (two words). *)
let test_compare_no_alloc () =
  let a = Sys.opaque_identity (Key.of_int_pair 7 9)
  and b = Sys.opaque_identity (Key.of_int_pair 7 10) in
  let buf = Bytes.of_string ("xx" ^ a) in
  let words_per_call name ~max f =
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int n in
    if w > max then Alcotest.failf "%s: %.2f minor words per call" name w
  in
  words_per_call "compare_fast" ~max:0.01 (fun () -> Key.compare_fast a b);
  words_per_call "compare_at" ~max:0.01 (fun () -> Key.compare_at buf 2 16 b);
  words_per_call "first_diff_bit" ~max:2.01 (fun () -> Key.first_diff_bit a b)

(* --- Clock ---------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Bench_clock.now_ns ()) in
  for _ = 1 to 1_000_000 do
    let t = Bench_clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went back: %d after %d" t !prev;
    prev := t
  done;
  check Alcotest.bool "positive" true (!prev > 0)

(* --- RNG ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.stream seed 7 and b = Rng.stream seed 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next_int a) (Rng.next_int b)
  done

let test_rng_bounds () =
  let rng = Rng.stream seed 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_rng_uniformish () =
  let rng = Rng.stream seed 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int n in
      if f < 0.08 || f > 0.12 then Alcotest.failf "bucket fraction %f" f)
    buckets

(* --- Zipf ----------------------------------------------------------- *)

let test_zipf_skew () =
  let rng = Rng.stream seed 5 in
  let z = Zipf.create 1000 in
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Zipf.next z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 must dominate and roughly follow 1/k^0.99. *)
  check Alcotest.bool "rank 0 most popular" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(10));
  let f0 = float_of_int counts.(0) /. float_of_int n in
  if f0 < 0.05 || f0 > 0.25 then Alcotest.failf "rank-0 fraction %f" f0

let test_zipf_bounds () =
  let rng = Rng.stream seed 9 in
  let z = Zipf.create ~scramble:true 100 in
  for _ = 1 to 10_000 do
    let r = Zipf.next z rng in
    if r < 0 || r >= 100 then Alcotest.fail "zipf out of bounds"
  done

let test_latest () =
  let rng = Rng.stream seed 13 in
  let z = Zipf.create 1_000 in
  let hits_recent = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let r = Zipf.next_latest z rng ~max_item:499 in
    if r < 0 || r > 499 then Alcotest.fail "latest out of bounds";
    if r > 449 then incr hits_recent
  done;
  (* The newest 10% of items should receive the majority of accesses. *)
  check Alcotest.bool "latest skews recent" true (!hits_recent > n / 2)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ei_util"
    [
      ( "key",
        [
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
          Alcotest.test_case "int order" `Quick test_int_order;
          Alcotest.test_case "pair order" `Quick test_pair_order;
          Alcotest.test_case "bit access" `Quick test_bit;
          qt prop_first_diff;
          qt prop_diff_orders;
          qt prop_compare_fast;
          Alcotest.test_case "compare_fast edges" `Quick
            test_compare_fast_edges;
          qt prop_compare_at;
          Alcotest.test_case "compare_at bounds" `Quick test_compare_at_bounds;
          Alcotest.test_case "comparisons allocate nothing" `Quick
            test_compare_no_alloc;
        ] );
      ("clock", [ Alcotest.test_case "monotonic over 1M reads" `Quick test_clock_monotonic ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_rng_uniformish;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "latest" `Quick test_latest;
        ] );
    ]
