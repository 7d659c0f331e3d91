(* Deterministic splitmix64 PRNG.

   All workload generators in this repository draw from this generator so
   that every experiment is reproducible from a seed.  The algorithm is
   the reference splitmix64 of Steele et al., operating on OCaml's native
   63-bit [int] via Int64. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let golden_gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A non-negative int uniform over [0, 2^62). *)
let next_int t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  assert (bound > 0);
  next_int t mod bound

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* The [i]-th independent stream derived from [seed]: place a generator
   at state [seed + i * golden_gamma] (stream offsets a whole gamma
   apart) and seed a fresh generator from its first output, so streams
   with nearby indexes share no low-entropy prefix.  Deterministic in
   [(seed, i)] — the basis for reproducible multi-domain runs. *)
let stream seed i =
  let t =
    {
      state =
        Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int i) golden_gamma);
    }
  in
  { state = next_int64 t }

(* The one sanctioned way to read the experiment seed: every test and
   bench executable derives its seeds from [env_seed], so a CI failure
   line "EI_SEED=n" replays anywhere.  Malformed values fall back to the
   default rather than abort — a typo'd override should not mask the
   suite behind a startup crash. *)
let env_seed ~default =
  match Sys.getenv_opt "EI_SEED" with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> default)
