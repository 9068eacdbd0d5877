(* Unit and property tests for Rr_util. *)

module Rng = Rr_util.Rng
module Heap = Rr_util.Indexed_heap
module Pheap = Rr_util.Pairing_heap
module Bitset = Rr_util.Bitset
module Uf = Rr_util.Union_find
module Stats = Rr_util.Stats

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_rng_int_range () =
  let t = Rng.create 99 in
  for _ = 1 to 10_000 do
    let x = Rng.int t 17 in
    checkb "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let t = Rng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Rng.int t 10) <- true
  done;
  checkb "all values hit" true (Array.for_all Fun.id seen)

let test_rng_uniform_range () =
  let t = Rng.create 4 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform t in
    checkb "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_mean () =
  let t = Rng.create 8 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform t
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let t = Rng.create 21 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential t 2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_poisson_mean () =
  let t = Rng.create 33 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson t 3.5
  done;
  let mean = float_of_int !sum /. float_of_int n in
  checkb "poisson mean" true (Float.abs (mean -. 3.5) < 0.1)

let test_rng_shuffle_permutation () =
  let t = Rng.create 6 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let t = Rng.create 77 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement t 5 12 in
    check Alcotest.int "size" 5 (List.length s);
    check Alcotest.int "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> checkb "in range" true (x >= 0 && x < 12)) s
  done

let test_rng_split_independent () =
  let t = Rng.create 42 in
  let s = Rng.split t in
  checkb "split stream differs" true (Rng.bits64 s <> Rng.bits64 t)

(* ------------------------------------------------------------------ *)
(* Indexed_heap                                                         *)

(* A heap over a test-owned priority array, so a popped key's priority
   stays readable; [pop_min] yields (key, priority) pairs. *)
let heap n =
  let prio = Array.make (max n 1) nan in
  (Heap.create ~prio n, prio)

let pop_min (h, prio) =
  let k = Heap.pop h in
  if k < 0 then None else Some (k, prio.(k))

let test_heap_basic () =
  let ((h, _) as hp) = heap 10 in
  checkb "empty" true (Heap.is_empty h);
  Heap.insert h 3 5.0;
  Heap.insert h 7 1.0;
  Heap.insert h 1 3.0;
  check Alcotest.int "cardinal" 3 (Heap.cardinal h);
  check Alcotest.(option (pair int (float 0.0))) "min" (Some (7, 1.0)) (pop_min hp);
  check Alcotest.(option (pair int (float 0.0))) "next" (Some (1, 3.0)) (pop_min hp);
  check Alcotest.(option (pair int (float 0.0))) "last" (Some (3, 5.0)) (pop_min hp);
  check Alcotest.(option (pair int (float 0.0))) "drained" None (pop_min hp)

let test_heap_decrease () =
  let ((h, _) as hp) = heap 5 in
  Heap.insert h 0 10.0;
  Heap.insert h 1 20.0;
  Heap.decrease h 1 5.0;
  check Alcotest.(option (pair int (float 0.0))) "decreased wins" (Some (1, 5.0)) (pop_min hp)

let test_heap_rejects_increase () =
  let h = Heap.create 5 in
  Heap.insert h 0 1.0;
  Alcotest.check_raises "increase rejected" (Invalid_argument "Indexed_heap.decrease: priority increase")
    (fun () -> Heap.decrease h 0 2.0)

let test_heap_rejects_duplicate () =
  let h = Heap.create 5 in
  Heap.insert h 2 1.0;
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Indexed_heap.insert: key already queued") (fun () ->
      Heap.insert h 2 3.0)

let test_heap_insert_or_decrease () =
  let ((h, _) as hp) = heap 5 in
  Heap.insert_or_decrease h 0 5.0;
  Heap.insert_or_decrease h 0 3.0;
  Heap.insert_or_decrease h 0 9.0 (* no-op *);
  check Alcotest.(option (pair int (float 0.0))) "kept min" (Some (0, 3.0)) (pop_min hp)

let test_heap_clear () =
  let ((h, _) as hp) = heap 4 in
  Heap.insert h 0 1.0;
  Heap.insert h 1 2.0;
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h);
  Heap.insert h 0 3.0;
  check Alcotest.(option (pair int (float 0.0))) "reusable" (Some (0, 3.0)) (pop_min hp)

(* A heap over the caller's key-indexed priority array: lower an entry in
   place, [update], and [pop] hands the keys back in priority order. *)
let test_heap_shared_priorities () =
  let dist = Array.make 6 infinity in
  let h = Heap.create ~prio:dist 6 in
  List.iter (fun (k, d) -> dist.(k) <- d; Heap.update h k) [ (4, 9.0); (2, 4.0); (5, 7.0) ];
  dist.(5) <- 1.0;
  Heap.update h 5;
  Heap.insert h 0 3.0;
  check Alcotest.(float 0.0) "insert writes the shared array" 3.0 dist.(0);
  let order = List.init 5 (fun _ -> Heap.pop h) in
  check Alcotest.(list int) "pop order" [ 5; 0; 2; 4; -1 ] order;
  Alcotest.check_raises "short array rejected"
    (Invalid_argument "Indexed_heap.create: priority array shorter than capacity")
    (fun () -> ignore (Heap.create ~prio:(Array.make 2 0.0) 3))

let prop_heap_sorts =
  QCheck.Test.make ~name:"indexed heap pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let ((h, _) as hp) = heap (max n 1) in
      List.iteri (fun i p -> Heap.insert h i p) prios;
      let rec drain acc =
        match pop_min hp with
        | None -> List.rev acc
        | Some (_, p) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

let prop_heap_decrease_key =
  QCheck.Test.make ~name:"decrease-key preserves heap order" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range 1.0 100.0)) int)
    (fun (prios, pick) ->
      let n = List.length prios in
      let ((h, _) as hp) = heap n in
      List.iteri (fun i p -> Heap.insert h i p) prios;
      let k = abs pick mod n in
      let old = List.nth prios k in
      Heap.decrease h k (old /. 2.0);
      let expected =
        List.mapi (fun i p -> if i = k then p /. 2.0 else p) prios
        |> List.sort compare
      in
      let rec drain acc =
        match pop_min hp with
        | None -> List.rev acc
        | Some (_, p) -> drain (p :: acc)
      in
      drain [] = expected)

(* ------------------------------------------------------------------ *)
(* Pairing_heap                                                         *)

let test_pheap_basic () =
  let h = Pheap.create () in
  ignore (Pheap.insert h 3.0 "c");
  ignore (Pheap.insert h 1.0 "a");
  ignore (Pheap.insert h 2.0 "b");
  check Alcotest.(option (pair (float 0.0) string)) "min" (Some (1.0, "a")) (Pheap.pop_min h);
  check Alcotest.(option (pair (float 0.0) string)) "next" (Some (2.0, "b")) (Pheap.pop_min h);
  check Alcotest.(option (pair (float 0.0) string)) "last" (Some (3.0, "c")) (Pheap.pop_min h)

let test_pheap_decrease () =
  let h = Pheap.create () in
  ignore (Pheap.insert h 1.0 "a");
  let hb = Pheap.insert h 10.0 "b" in
  ignore (Pheap.insert h 5.0 "c");
  Pheap.decrease h hb 0.5;
  check Alcotest.(option (pair (float 0.0) string)) "decreased first" (Some (0.5, "b"))
    (Pheap.pop_min h)

let prop_pheap_sorts =
  QCheck.Test.make ~name:"pairing heap pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range 0.0 100.0))
    (fun prios ->
      let h = Pheap.create () in
      List.iter (fun p -> ignore (Pheap.insert h p p)) prios;
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let prop_pheap_decrease_random =
  QCheck.Test.make ~name:"pairing heap random decrease-key" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let h = Pheap.create () in
      let n = 30 in
      let handles = Array.init n (fun i -> Pheap.insert h (Rng.float rng 100.0) i) in
      (* randomly decrease half the keys *)
      for _ = 1 to n / 2 do
        let k = Rng.int rng n in
        let cur = Pheap.priority handles.(k) in
        Pheap.decrease h handles.(k) (cur /. 2.0)
      done;
      let expected =
        Array.to_list (Array.map Pheap.priority handles) |> List.sort compare
      in
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = expected)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)

let test_bitset_basic () =
  let s = Bitset.of_list 10 [ 1; 3; 7 ] in
  checkb "mem 3" true (Bitset.mem s 3);
  checkb "not mem 2" false (Bitset.mem s 2);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check Alcotest.(list int) "to_list" [ 1; 3; 7 ] (Bitset.to_list s)

let test_bitset_wide () =
  (* Crosses the 62-bit word boundary. *)
  let s = Bitset.of_list 200 [ 0; 61; 62; 63; 124; 199 ] in
  check Alcotest.(list int) "elements" [ 0; 61; 62; 63; 124; 199 ] (Bitset.to_list s);
  check Alcotest.int "cardinal" 6 (Bitset.cardinal s);
  let s2 = Bitset.remove s 62 in
  checkb "removed" false (Bitset.mem s2 62);
  checkb "original intact" true (Bitset.mem s 62)

let test_bitset_full () =
  let s = Bitset.full 70 in
  check Alcotest.int "cardinal" 70 (Bitset.cardinal s);
  checkb "mem last" true (Bitset.mem s 69)

let test_bitset_ops () =
  let a = Bitset.of_list 8 [ 0; 1; 2 ] in
  let b = Bitset.of_list 8 [ 2; 3 ] in
  check Alcotest.(list int) "union" [ 0; 1; 2; 3 ] (Bitset.to_list (Bitset.union a b));
  check Alcotest.(list int) "inter" [ 2 ] (Bitset.to_list (Bitset.inter a b));
  check Alcotest.(list int) "diff" [ 0; 1 ] (Bitset.to_list (Bitset.diff a b));
  checkb "subset" true (Bitset.subset (Bitset.of_list 8 [ 2 ]) b);
  checkb "not subset" false (Bitset.subset a b)

let test_bitset_out_of_range () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "mem out of range" (Invalid_argument "Bitset: element out of range")
    (fun () -> ignore (Bitset.mem s 5))

let prop_bitset_model =
  (* Bitset behaves like a sorted-unique int list. *)
  QCheck.Test.make ~name:"bitset matches list-set model" ~count:300
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let xs' = List.sort_uniq compare xs and ys' = List.sort_uniq compare ys in
      Bitset.to_list (Bitset.union a b) = List.sort_uniq compare (xs' @ ys')
      && Bitset.to_list (Bitset.inter a b) = List.filter (fun x -> List.mem x ys') xs'
      && Bitset.to_list (Bitset.diff a b)
         = List.filter (fun x -> not (List.mem x ys')) xs'
      && Bitset.cardinal a = List.length xs')

(* Word-level iteration and the SWAR popcount at widths on and around the
   62-bit word boundary, against a sorted-unique list. *)
let prop_bitset_word_boundaries =
  let widths = [| 1; 61; 62; 63; 64; 124; 200 |] in
  let gen =
    QCheck.Gen.(
      int_bound (Array.length widths - 1) >>= fun wi ->
      let w = widths.(wi) in
      list_size (int_bound (2 * w)) (int_bound (w - 1)) >|= fun xs -> (w, xs))
  in
  let print (w, xs) =
    Printf.sprintf "width %d: [%s]" w (String.concat ";" (List.map string_of_int xs))
  in
  QCheck.Test.make ~name:"bitset word boundaries match sorted-list model"
    ~count:400 (QCheck.make ~print gen) (fun (w, xs) ->
      let model = List.sort_uniq compare xs in
      let s = Bitset.of_list w xs in
      let iterated = ref [] in
      Bitset.iter (fun i -> iterated := i :: !iterated) s;
      let words = List.init (Bitset.nwords s) (Bitset.word s) in
      Bitset.to_list s = model
      && List.rev !iterated = model
      && Bitset.fold (fun i acc -> acc + i) s 0 = List.fold_left ( + ) 0 model
      && Bitset.cardinal s = List.length model
      && List.fold_left (fun acc x -> acc + Bitset.popcount x) 0 words
         = List.length model
      && Bitset.choose s = (match model with [] -> None | x :: _ -> Some x)
      && Bitset.cardinal (Bitset.full w) = w
      && Bitset.to_list (Bitset.full w) = List.init w Fun.id)

let test_bitset_popcount_extremes () =
  let top = (1 lsl Bitset.bits_per_word) - 1 in
  check Alcotest.int "all 62 bits" 62 (Bitset.popcount top);
  check Alcotest.int "zero" 0 (Bitset.popcount 0);
  check Alcotest.int "bit 61" 1 (Bitset.popcount (1 lsl 61));
  check Alcotest.(list int) "bit 61 of a 62-wide set" [ 61 ]
    (Bitset.to_list (Bitset.of_list 62 [ 61 ]))

(* ------------------------------------------------------------------ *)
(* Union_find                                                           *)

let test_uf_basic () =
  let uf = Uf.create 5 in
  check Alcotest.int "initial classes" 5 (Uf.count uf);
  checkb "union new" true (Uf.union uf 0 1);
  checkb "union again" false (Uf.union uf 1 0);
  checkb "same" true (Uf.same uf 0 1);
  checkb "not same" false (Uf.same uf 0 2);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 1 2);
  check Alcotest.int "classes" 2 (Uf.count uf);
  checkb "transitive" true (Uf.same uf 0 3)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check Alcotest.(float 1e-9) "mean" 3.0 s.mean;
  check Alcotest.(float 1e-9) "min" 1.0 s.min;
  check Alcotest.(float 1e-9) "max" 5.0 s.max;
  check Alcotest.(float 1e-9) "p50" 3.0 s.p50;
  check Alcotest.(float 1e-6) "stddev" (sqrt 2.5) s.stddev

let test_stats_percentile_interp () =
  check Alcotest.(float 1e-9) "p25 of [0;10]" 2.5 (Stats.percentile 0.25 [ 0.0; 10.0 ]);
  check Alcotest.(float 1e-9) "p0" 0.0 (Stats.percentile 0.0 [ 0.0; 10.0 ]);
  check Alcotest.(float 1e-9) "p100" 10.0 (Stats.percentile 1.0 [ 0.0; 10.0 ])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  check Alcotest.int "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check Alcotest.int "low bin" 2 c0;
  check Alcotest.int "high bin" 2 c1

let test_stats_ci95 () =
  let lo, hi = Stats.ci95 [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkb "brackets the mean" true (lo < 3.0 && 3.0 < hi);
  checkb "symmetric" true (Float.abs (hi -. 3.0 -. (3.0 -. lo)) < 1e-9);
  check Alcotest.(pair (float 0.0) (float 0.0)) "singleton" (7.0, 7.0) (Stats.ci95 [ 7.0 ])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []))

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Rr_util.Table.create ~title:"demo" ~header:[ "a"; "bb" ] in
  Rr_util.Table.add_row t [ "1"; "2" ];
  let s = Rr_util.Table.render t in
  checkb "title present" true (contains_substring s "demo");
  checkb "header present" true (contains_substring s "bb");
  checkb "row present" true (contains_substring s "| 1");
  check Alcotest.string "float cell" "2.5000" (Rr_util.Table.cell_f 2.5);
  check Alcotest.string "int-ish cell" "3" (Rr_util.Table.cell_f 3.0);
  check Alcotest.string "pct cell" "12.00%" (Rr_util.Table.cell_pct 0.12)

let test_table_mismatch () =
  let t = Rr_util.Table.create ~title:"x" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "column mismatch"
    (Invalid_argument "Table.add_row: column count mismatch") (fun () ->
      Rr_util.Table.add_row t [ "only one" ])

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int covers" `Quick test_rng_int_covers;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "decrease" `Quick test_heap_decrease;
        Alcotest.test_case "rejects increase" `Quick test_heap_rejects_increase;
        Alcotest.test_case "rejects duplicate" `Quick test_heap_rejects_duplicate;
        Alcotest.test_case "insert_or_decrease" `Quick test_heap_insert_or_decrease;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "shared priorities" `Quick test_heap_shared_priorities;
        qtest prop_heap_sorts;
        qtest prop_heap_decrease_key;
      ] );
    ( "util.pairing_heap",
      [
        Alcotest.test_case "basic" `Quick test_pheap_basic;
        Alcotest.test_case "decrease" `Quick test_pheap_decrease;
        qtest prop_pheap_sorts;
        qtest prop_pheap_decrease_random;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "wide" `Quick test_bitset_wide;
        Alcotest.test_case "full" `Quick test_bitset_full;
        Alcotest.test_case "ops" `Quick test_bitset_ops;
        Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
        qtest prop_bitset_model;
        qtest prop_bitset_word_boundaries;
        Alcotest.test_case "popcount extremes" `Quick test_bitset_popcount_extremes;
      ] );
    ("util.union_find", [ Alcotest.test_case "basic" `Quick test_uf_basic ]);
    ( "util.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interp;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        Alcotest.test_case "ci95" `Quick test_stats_ci95;
        Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "mismatch" `Quick test_table_mismatch;
      ] );
  ]
