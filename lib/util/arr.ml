let map ~fill f a =
  let r = Array.make (Array.length a) fill in
  Array.iteri (fun i x -> r.(i) <- f x) a;
  r
