(* The §4 soft-bound hysteresis and capacity progression, shared by the
   elastic B+-tree, the elastic BTreeOLC and the elastic skip list. *)

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

let double ~max_capacity (c : int) =
  if c < max_capacity then Some (2 * c) else None
let halve ~floor (c : int) = if c / 2 > floor then Some (c / 2) else None
let min_count c = (c / 2) + 1
let underflows ~capacity ~(count : int) = count < min_count capacity
let search_split_probability = 1.0 /. 32.0

let lift ~(std : int) ~initial ~max_capacity =
  if initial > std then (initial, max_capacity)
  else (2 * std, max max_capacity (4 * std))

let legal_capacity ~std ~initial ~max_capacity (c : int) =
  let rec reach next x =
    Int.equal x c || match next x with Some y -> reach next y | None -> false
  in
  c > std
  && c <= max_capacity
  && (reach (double ~max_capacity) initial || reach (halve ~floor:std) initial)
