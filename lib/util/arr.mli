(** Array construction that never forces a minor collection.

    [Array.map], [Array.init] and [Array.of_list] seed their result
    with its first element.  For more than [Max_young_wosize] (256)
    elements and a first element still in the minor heap, the runtime
    runs a minor collection first, which in OCaml 5 stops every domain.
    These fill an array seeded with an immediate or static [fill]
    instead. *)

val map : fill:'b -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~fill f a] is [Array.map f a], built from [Array.make _ fill]. *)
