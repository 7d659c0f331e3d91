(* The §4 soft-bound hysteresis, capacity progression and conversion
   rules with §6.1's parameters, shared by the elastic B+-tree, the
   elastic BTreeOLC and the elastic skip list. *)

type state = Normal | Shrinking | Expanding

let state_name = function
  | Normal -> "normal"
  | Shrinking -> "shrinking"
  | Expanding -> "expanding"

let state_equal a b =
  match (a, b) with
  | Normal, Normal | Shrinking, Shrinking | Expanding, Expanding -> true
  | (Normal | Shrinking | Expanding), _ -> false

let code = function Normal -> 0 | Shrinking -> 1 | Expanding -> 2

(* §6.1's fractions. *)
let shrink_at bound = int_of_float (0.9 *. float_of_int bound)
let expand_at bound = int_of_float (0.75 *. float_of_int bound)

let step s ~bound ~(bytes : int) ~compact =
  match s with
  | Normal -> if bytes >= shrink_at bound then Shrinking else Normal
  | Shrinking -> if bytes <= expand_at bound then Expanding else Shrinking
  | Expanding ->
    if bytes >= shrink_at bound then Shrinking
    else if compact = 0 then Normal
    else Expanding

(* §6.1's parameters. *)
let initial_capacity = 32
let max_capacity = 128
let seq_levels = 2
let breathing = 4

let lift ~(std : int) =
  if initial_capacity > std then (initial_capacity, max_capacity)
  else (2 * std, max max_capacity (4 * std))

let double ~max_capacity (c : int) =
  if c < max_capacity then Some (2 * c) else None
let halve ~floor (c : int) = if c / 2 > floor then Some (c / 2) else None
let min_count c = (c / 2) + 1
let underflows ~capacity ~(count : int) = count < min_count capacity

let shrink_to ~std s leaf =
  match s with
  | Normal | Expanding -> None
  | Shrinking -> (
    let initial, max_capacity = lift ~std in
    match leaf with
    | None -> Some initial
    | Some c -> double ~max_capacity c)

let search_split_probability = 1.0 /. 32.0

let search_splits s rng =
  state_equal s Expanding
  && Float.compare (Ei_util.Rng.float rng) search_split_probability < 0

let legal_capacity ~std (c : int) =
  let initial, max_capacity = lift ~std in
  let rec reach next x =
    Int.equal x c || match next x with Some y -> reach next y | None -> false
  in
  c > std
  && c <= max_capacity
  && (reach (double ~max_capacity) initial || reach (halve ~floor:std) initial)
