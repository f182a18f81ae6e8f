(* The embedded JS training corpus.

   Substitute for the paper's 140k GitHub files (see DESIGN.md): a few
   hundred small hand-written programs in the style the paper's Figure 2
   test cases take — one or two functions exercising standard APIs, driver
   variables, and a [print] of the result. The language model learns JS
   purely from these strings; nothing below is quoted by the generator
   directly, only token statistics.

   Style is deliberately uniform (same style rules a GitHub-top-projects
   corpus has after lint): [var] declarations, function expressions,
   semicolons everywhere, double-quoted strings. *)

let programs : string list =
  [
    {|var greet = function(name) {
  var msg = "Hello, " + name + "!";
  return msg;
};
var who = "world";
print(greet(who));|};
    {|function add(a, b) {
  return a + b;
}
var x = 3;
var y = 4;
print(add(x, y));|};
    {|var clamp = function(value, lo, hi) {
  if (value < lo) { return lo; }
  if (value > hi) { return hi; }
  return value;
};
print(clamp(15, 0, 10));|};
    {|var sum = function(arr) {
  var total = 0;
  for (var i = 0; i < arr.length; i++) {
    total += arr[i];
  }
  return total;
};
var nums = [1, 2, 3, 4, 5];
print(sum(nums));|};
    {|var head = function(str, count) {
  var part = str.substr(0, count);
  return part;
};
var text = "abcdefgh";
print(head(text, 3));|};
    {|var tail = function(str, start) {
  var rest = str.substr(start);
  return rest;
};
var word = "JavaScript";
print(tail(word, 4));|};
    {|function repeatWord(word, times) {
  var out = word.repeat(times);
  return out;
}
print(repeatWord("ab", 3));|};
    {|var shout = function(str) {
  var loud = str.toUpperCase();
  return loud + "!";
};
print(shout("quiet"));|};
    {|var whisper = function(str) {
  return str.toLowerCase();
};
print(whisper("LOUD"));|};
    {|var firstChar = function(str, index) {
  var ch = str.charAt(index);
  return ch;
};
var s = "hello";
print(firstChar(s, 1));|};
    {|var codeAt = function(str, pos) {
  return str.charCodeAt(pos);
};
print(codeAt("A", 0));|};
    {|var findIn = function(str, what, from) {
  var where = str.indexOf(what, from);
  return where;
};
print(findIn("banana", "an", 2));|};
    {|var cutMiddle = function(str, a, b) {
  var piece = str.substring(a, b);
  return piece;
};
print(cutMiddle("abcdef", 1, 4));|};
    {|var takeSlice = function(str, start, end) {
  var piece = str.slice(start, end);
  return piece;
};
print(takeSlice("abcdef", -3, -1));|};
    {|var pieces = function(str, sep) {
  var parts = str.split(sep);
  return parts.length;
};
print(pieces("a,b,c", ","));|};
    {|var swap = function(str, from, to) {
  var out = str.replace(from, to);
  return out;
};
print(swap("good day", "good", "bad"));|};
    {|var tidy = function(str) {
  var out = str.trim();
  return out;
};
print(tidy("  spaced  "));|};
    {|var padded = function(str, width) {
  return str.padStart(width, "0");
};
print(padded("7", 3));|};
    {|var padRight = function(str, width) {
  return str.padEnd(width, ".");
};
print(padRight("x", 4));|};
    {|var hasPrefix = function(str, prefix) {
  return str.startsWith(prefix);
};
print(hasPrefix("filename.txt", "file"));|};
    {|var hasSuffix = function(str, suffix) {
  return str.endsWith(suffix);
};
print(hasSuffix("filename.txt", ".txt"));|};
    {|var contains = function(str, piece) {
  return str.includes(piece);
};
print(contains("haystack", "needle"));|};
    {|var joinAll = function(items, sep) {
  var line = items.join(sep);
  return line;
};
print(joinAll(["a", "b", "c"], "-"));|};
    {|var lastOf = function(arr) {
  return arr[arr.length - 1];
};
print(lastOf([10, 20, 30]));|};
    {|var pushTwo = function(arr, a, b) {
  arr.push(a);
  arr.push(b);
  return arr.length;
};
print(pushTwo([1], 2, 3));|};
    {|var takeLast = function(arr) {
  var v = arr.pop();
  return v;
};
print(takeLast([4, 5, 6]));|};
    {|var dropFirst = function(arr) {
  arr.shift();
  return arr;
};
print(dropFirst([1, 2, 3]));|};
    {|var prepend = function(arr, v) {
  var n = arr.unshift(v);
  return n;
};
print(prepend([2, 3], 1));|};
    {|var middle = function(arr, a, b) {
  var part = arr.slice(a, b);
  return part;
};
print(middle([1, 2, 3, 4, 5], 1, 3));|};
    {|var cutOut = function(arr, start, count) {
  var removed = arr.splice(start, count);
  return removed;
};
print(cutOut([1, 2, 3, 4], 1, 2));|};
    {|var whereIs = function(arr, v) {
  return arr.indexOf(v);
};
print(whereIs([5, 6, 7], 6));|};
    {|var hasValue = function(arr, v) {
  return arr.includes(v);
};
print(hasValue([1, 2, 3], 4));|};
    {|var backwards = function(arr) {
  return arr.reverse();
};
print(backwards([1, 2, 3]));|};
    {|var sorted = function(arr) {
  arr.sort();
  return arr;
};
print(sorted([3, 1, 2]));|};
    {|var sortNums = function(arr) {
  arr.sort(function(a, b) { return a - b; });
  return arr;
};
print(sortNums([30, 4, 100]));|};
    {|var doubled = function(arr) {
  var out = arr.map(function(x) { return x * 2; });
  return out;
};
print(doubled([1, 2, 3]));|};
    {|var evens = function(arr) {
  var out = arr.filter(function(x) { return x % 2 === 0; });
  return out;
};
print(evens([1, 2, 3, 4]));|};
    {|var total = function(arr) {
  return arr.reduce(function(acc, x) { return acc + x; }, 0);
};
print(total([1, 2, 3, 4]));|};
    {|var anyBig = function(arr, limit) {
  return arr.some(function(x) { return x > limit; });
};
print(anyBig([1, 5, 9], 8));|};
    {|var allPositive = function(arr) {
  return arr.every(function(x) { return x > 0; });
};
print(allPositive([1, 2, -3]));|};
    {|var firstBig = function(arr, limit) {
  return arr.find(function(x) { return x > limit; });
};
print(firstBig([1, 8, 3], 5));|};
    {|var flatten = function(arr) {
  return arr.flat();
};
print(flatten([1, [2, 3], [4]]));|};
    {|var filled = function(size, v) {
  var arr = new Array(size);
  arr.fill(v);
  return arr;
};
print(filled(3, 7));|};
    {|var countdown = function(size) {
  var array = new Array(size);
  while (size--) {
    array[size] = size;
  }
  return array.length;
};
print(countdown(5));|};
    {|var rounded = function(num, digits) {
  var out = num.toFixed(digits);
  return out;
};
var value = 3.14159;
print(rounded(value, 2));|};
    {|var precise = function(num, digits) {
  return num.toPrecision(digits);
};
print(precise(123.456, 4));|};
    {|var inBase = function(num, radix) {
  return num.toString(radix);
};
var n = 255;
print(inBase(n, 16));|};
    {|var readInt = function(str) {
  var n = parseInt(str, 10);
  return n;
};
print(readInt("42px"));|};
    {|var readHex = function(str) {
  return parseInt(str, 16);
};
print(readHex("ff"));|};
    {|var readFloat = function(str) {
  var f = parseFloat(str);
  return f;
};
print(readFloat("2.5 kg"));|};
    {|var isWhole = function(v) {
  return Number.isInteger(v);
};
print(isWhole(5.0));|};
    {|var biggest = function(a, b, c) {
  return Math.max(a, b, c);
};
print(biggest(3, 9, 5));|};
    {|var smallest = function(a, b) {
  return Math.min(a, b);
};
print(smallest(-1, 1));|};
    {|var magnitude = function(x) {
  return Math.abs(x);
};
print(magnitude(-7));|};
    {|var rounddown = function(x) {
  return Math.floor(x);
};
print(rounddown(2.9));|};
    {|var roundup = function(x) {
  return Math.ceil(x);
};
print(roundup(2.1));|};
    {|var power = function(base, exp) {
  return Math.pow(base, exp);
};
print(power(2, 10));|};
    {|var root = function(x) {
  return Math.sqrt(x);
};
print(root(81));|};
    {|var keysOf = function(obj) {
  var keys = Object.keys(obj);
  return keys;
};
var data = {a: 1, b: 2};
print(keysOf(data));|};
    {|var frozen = function(obj) {
  Object.freeze(obj);
  obj.x = 99;
  return obj.x;
};
print(frozen({x: 1}));|};
    {|var sealed = function(obj) {
  Object.seal(obj);
  obj.y = 2;
  return obj.y;
};
print(sealed({x: 1}));|};
    {|var merged = function(a, b) {
  var out = Object.assign({}, a, b);
  return out.b;
};
print(merged({a: 1}, {b: 2}));|};
    {|var defined = function(obj) {
  Object.defineProperty(obj, "k", { value: 5, writable: false });
  return obj.k;
};
print(defined({}));|};
    {|var owned = function(obj, key) {
  return obj.hasOwnProperty(key);
};
print(owned({a: 1}, "a"));|};
    {|var names = function(obj) {
  return Object.getOwnPropertyNames(obj);
};
print(names({z: 1, a: 2}));|};
    {|var hidden = function(obj, key) {
  Object.defineProperty(obj, key, { value: 1, enumerable: false });
  return Object.keys(obj);
};
print(hidden({a: 1}, "secret"));|};
    {|var encode = function(value) {
  var text = JSON.stringify(value);
  return text;
};
print(encode({a: [1, 2], b: "x"}));|};
    {|var decode = function(text) {
  var value = JSON.parse(text);
  return value.a;
};
print(decode("{\"a\": 7}"));|};
    {|var roundtrip = function(obj) {
  return JSON.parse(JSON.stringify(obj)).n;
};
print(roundtrip({n: 1.5}));|};
    {|var matches = function(str) {
  var re = /[a-z]+/;
  return re.test(str);
};
print(matches("abc123"));|};
    {|var firstMatch = function(str) {
  var m = /(\d+)/.exec(str);
  return m[1];
};
print(firstMatch("order 66 ready"));|};
    {|var splitWords = function(str) {
  var words = str.split(/\s+/);
  return words.length;
};
print(splitWords("one two  three"));|};
    {|var digitsOnly = function(str) {
  return str.replace(/\D/g, "");
};
print(digitsOnly("a1b2c3"));|};
    {|var bytes = function(size) {
  var buf = new Uint8Array(size);
  buf[0] = 300;
  return buf[0];
};
print(bytes(4));|};
    {|var words32 = function(length) {
  var array = new Uint32Array(length);
  print(array.length);
  return array;
};
words32(3);|};
    {|var copyInto = function(values) {
  var target = new Uint8Array(8);
  target.set(values, 2);
  return target;
};
print(copyInto([1, 2, 3]));|};
    {|var viewByte = function(offset) {
  var view = new DataView(4);
  view.setUint8(offset, 200);
  return view.getUint8(offset);
};
print(viewByte(1));|};
    {|var tryEval = function(code) {
  var result = eval(code);
  return result;
};
print(tryEval("1 + 2 * 3"));|};
    {|var safeEval = function(code) {
  try {
    return eval(code);
  } catch (e) {
    return e.name;
  }
};
print(safeEval("for(var i = 0; i < 5; i++)"));|};
    {|var guard = function(fn) {
  try {
    return fn();
  } catch (e) {
    return "caught " + e.name;
  }
};
print(guard(function() { throw new TypeError("bad"); }));|};
    {|var attempt = function(value) {
  try {
    if (value < 0) {
      throw new RangeError("negative");
    }
    return value;
  } catch (e) {
    return e.message;
  } finally {
    print("done");
  }
};
print(attempt(-1));|};
    {|var counter = function() {
  var count = 0;
  return function() {
    count = count + 1;
    return count;
  };
};
var tick = counter();
tick();
print(tick());|};
    {|var apply = function(fn, x) {
  return fn(x);
};
print(apply(function(v) { return v * v; }, 6));|};
    {|var compose = function(f, g) {
  return function(x) { return f(g(x)); };
};
var inc = function(x) { return x + 1; };
var dbl = function(x) { return x * 2; };
print(compose(inc, dbl)(5));|};
    {|var fib = function(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
};
print(fib(10));|};
    {|var fact = function(n) {
  var acc = 1;
  while (n > 1) {
    acc = acc * n;
    n = n - 1;
  }
  return acc;
};
print(fact(6));|};
    {|var gcd = function(a, b) {
  while (b !== 0) {
    var t = b;
    b = a % b;
    a = t;
  }
  return a;
};
print(gcd(48, 18));|};
    {|var isPrime = function(n) {
  if (n < 2) { return false; }
  for (var i = 2; i * i <= n; i++) {
    if (n % i === 0) { return false; }
  }
  return true;
};
print(isPrime(97));|};
    {|var countVowels = function(str) {
  var count = 0;
  for (var i = 0; i < str.length; i++) {
    if ("aeiou".indexOf(str.charAt(i)) >= 0) {
      count++;
    }
  }
  return count;
};
print(countVowels("education"));|};
    {|var reverseStr = function(str) {
  var out = "";
  for (var i = str.length - 1; i >= 0; i--) {
    out += str.charAt(i);
  }
  return out;
};
print(reverseStr("stressed"));|};
    {|var buildList = function(n) {
  var items = [];
  for (var i = 0; i < n; i++) {
    items.push(i * i);
  }
  return items;
};
print(buildList(5));|};
    {|var histogram = function(values) {
  var bins = {};
  for (var i = 0; i < values.length; i++) {
    var key = values[i];
    if (bins[key] === undefined) {
      bins[key] = 0;
    }
    bins[key] = bins[key] + 1;
  }
  return JSON.stringify(bins);
};
print(histogram([1, 2, 2, 3]));|};
    {|var pick = function(obj, key) {
  var value = obj[key];
  if (value === undefined) {
    return "missing";
  }
  return value;
};
var config = {mode: "fast", size: 10};
print(pick(config, "mode"));|};
    {|var describe = function(v) {
  var kind = typeof v;
  switch (kind) {
    case "number":
      return "num:" + v;
    case "string":
      return "str:" + v;
    default:
      return kind;
  }
};
print(describe(3));
print(describe("x"));|};
    {|var classify = function(n) {
  return n < 0 ? "neg" : n > 0 ? "pos" : "zero";
};
print(classify(-5));|};
    {|var loopSum = function(limit) {
  var s = 0;
  var i = 0;
  do {
    s += i;
    i++;
  } while (i < limit);
  return s;
};
print(loopSum(5));|};
    {|var keysJoined = function(obj) {
  var out = [];
  for (var k in obj) {
    out.push(k);
  }
  return out.join("+");
};
print(keysJoined({x: 1, y: 2}));|};
    {|var sumOf = function(items) {
  var s = 0;
  for (var v of items) {
    s += v;
  }
  return s;
};
print(sumOf([2, 4, 6]));|};
    {|var zip = function(a, b) {
  var out = [];
  for (var i = 0; i < a.length && i < b.length; i++) {
    out.push(a[i] + ":" + b[i]);
  }
  return out;
};
print(zip([1, 2], ["a", "b"]));|};
    {|var range = function(from, to) {
  var out = [];
  while (from < to) {
    out.push(from);
    from++;
  }
  return out;
};
print(range(2, 6));|};
    {|var unique = function(arr) {
  var seen = {};
  var out = [];
  for (var i = 0; i < arr.length; i++) {
    if (!seen[arr[i]]) {
      seen[arr[i]] = true;
      out.push(arr[i]);
    }
  }
  return out;
};
print(unique([1, 2, 1, 3, 2]));|};
    {|var swapEnds = function(arr) {
  var tmp = arr[0];
  arr[0] = arr[arr.length - 1];
  arr[arr.length - 1] = tmp;
  return arr;
};
print(swapEnds([1, 2, 3]));|};
    {|var maxOf = function(arr) {
  var best = arr[0];
  for (var i = 1; i < arr.length; i++) {
    if (arr[i] > best) {
      best = arr[i];
    }
  }
  return best;
};
print(maxOf([3, 9, 4]));|};
    {|var truthy = function(v) {
  if (v) {
    return "yes";
  } else {
    return "no";
  }
};
print(truthy(""));
print(truthy(0));
print(truthy("a"));|};
    {|var compare = function(a, b) {
  if (a === b) { return "same"; }
  if (a == b) { return "loose"; }
  return "diff";
};
print(compare(1, "1"));
print(compare(null, undefined));|};
    {|var bits = function(a, b) {
  return (a & b) + (a | b) + (a ^ b);
};
print(bits(12, 10));|};
    {|var shifted = function(x, n) {
  return (x << n) + (x >> 1) + (x >>> 1);
};
print(shifted(8, 2));|};
    {|var wrap = function(v) {
  return { value: v, twice: v * 2 };
};
var box = wrap(21);
print(box.twice);|};
    {|var point = {x: 3, y: 4};
var dist = function(p) {
  return Math.sqrt(p.x * p.x + p.y * p.y);
};
print(dist(point));|};
    {|var Stack = function() {
  this.items = [];
};
var s = new Stack();
s.items.push(1);
s.items.push(2);
print(s.items.length);|};
    {|var label = function(n) {
  var text = `value=${n}`;
  return text;
};
print(label(7));|};
    {|var sumArrow = (a, b) => {
  return a + b;
};
print(sumArrow(2, 3));|};
    {|let limit = 3;
const step = 2;
let acc = 0;
for (let i = 0; i < limit; i++) {
  acc += step;
}
print(acc);|};
    {|var checkType = function(v) {
  if (typeof v === "undefined") {
    return "undef";
  }
  return typeof v;
};
var nothing = undefined;
print(checkType(nothing));|};
    {|var deleteKey = function(obj, key) {
  delete obj[key];
  return Object.keys(obj).length;
};
print(deleteKey({a: 1, b: 2}, "a"));|};
    {|var hasKey = function(obj, key) {
  return key in obj;
};
print(hasKey({a: 1}, "b"));|};
    {|var instance = function() {
  var err = new TypeError("oops");
  return err instanceof TypeError;
};
print(instance());|};
    {|var chain = function(str) {
  return str.trim().toUpperCase().split("").reverse().join("");
};
print(chain(" abc "));|};
    {|var nested = function(matrix) {
  var total = 0;
  for (var i = 0; i < matrix.length; i++) {
    for (var j = 0; j < matrix[i].length; j++) {
      total += matrix[i][j];
    }
  }
  return total;
};
print(nested([[1, 2], [3, 4]]));|};
    {|var labelAll = function(items) {
  var out = items.map(function(v, i) { return i + ":" + v; });
  return out.join(",");
};
print(labelAll(["a", "b"]));|};
    {|var defaults = function(value, fallback) {
  return value !== undefined ? value : fallback;
};
print(defaults(undefined, 9));|};
    {|var stringy = function(value) {
  var out = "" + value;
  return out.length;
};
print(stringy(12345));|};
    {|var negate = function(x) {
  var y = -x;
  return 1 / y;
};
print(negate(0));|};
    {|var remainder = function(a, b) {
  return a % b;
};
print(remainder(-5, 3));|};
    {|var compareStrings = function(a, b) {
  return a < b;
};
print(compareStrings("10", "9"));|};
    {|var grow = function(start) {
  var x = start;
  x = x + 1000000;
  x = x + 2000000000;
  return x;
};
print(grow(1500000000));|};
    {|var concatLoop = function(n) {
  var s = "";
  for (var i = 0; i < n; i++) {
    s += "x";
  }
  return s.length;
};
print(concatLoop(200));|};
    {|var normalized = function(str) {
  return str.normalize("NFC");
};
print(normalized("abc"));|};
    {|var lastIndexIn = function(str, what) {
  return str.lastIndexOf(what);
};
print(lastIndexIn("abcabc", "b"));|};
    {|"use strict";
var strictAdd = function(a, b) {
  return a + b;
};
print(strictAdd(1, 2));|};
    {|"use strict";
function strictCheck(v) {
  return this === undefined && v > 0;
}
print(strictCheck(1));|};
    {|var fromChars = function(a, b) {
  return String.fromCharCode(a, b);
};
print(fromChars(72, 105));|};
    {|var arrayLike = function() {
  var obj = {0: "a", 1: "b", length: 2};
  return Array.from(obj).length;
};
print(arrayLike());|};
    {|var checker = function(list) {
  return Array.isArray(list);
};
print(checker([1]));
print(checker("no"));|};
    {|var setProp = function(obj, property, v) {
  obj[property] = v;
  return obj[property];
};
var target = [1, 2, 5];
print(setProp(target, 1, 10));|};
    {|var concatAll = function(a, b, c) {
  return a.concat(b, c);
};
print(concatAll([1], [2, 3], 4));|};
    {|var flatCount = function(nested, depth) {
  var flat = nested.flat(depth);
  return flat.length;
};
var data = [1, [2, [3, [4]]]];
print(flatCount(data, 1));|};
    {|var clampByte = function(v) {
  var c = new Uint8ClampedArray(1);
  c[0] = v;
  return c[0];
};
print(clampByte(97));|};
    {|var swapAll = function(str, from, to) {
  var out = str.replace(from, to);
  return out.length;
};
print(swapAll("mississippi", "ss", "-"));|};
    {|var stamp = function(text, mark) {
  return text.replace(mark, "[$&]");
};
print(stamp("deploy v2 now", "v2"));|};
    {|var firstDigit = function(str) {
  var m = str.match(/\d/);
  if (m === null) { return "none"; }
  return m[0];
};
print(firstDigit("abc7def8"));|};
    {|var negate = function(x) {
  var y = -x;
  return 1 / y;
};
print(negate(4));|};
    {|var wrapMod = function(a, b) {
  var r = a % b;
  return r;
};
print(wrapMod(-17, 5));|};
    {|var shiftLeft = function(x, count) {
  return x << count;
};
print(shiftLeft(3, 4));|};
    {|var unsigned = function(x) {
  return x >>> 0;
};
print(unsigned(255));|};
    {|var accumulate = function(rounds) {
  var s = "";
  for (var i = 0; i < rounds; i++) {
    s += "ab";
  }
  return s.length;
};
print(accumulate(120));|};
    {|var bigSum = function(a, b) {
  var total = a + b;
  return total;
};
print(bigSum(1000000000, 1200000000));|};
    {|var compareText = function(a, b) {
  if (a < b) { return "less"; }
  if (a > b) { return "more"; }
  return "same";
};
print(compareText("apple", "banana"));|};
    {|var looseEq = function(a, b) {
  return a == b;
};
print(looseEq(0, ""));
print(looseEq(1, "1"));|};
    {|var addMixed = function(flag, n) {
  return flag + n;
};
print(addMixed(false, 10));|};
    {|var viewRound = function(value) {
  var view = new DataView(4);
  view.setUint8(2, value);
  return view.getUint8(2);
};
print(viewRound(77));|};
    {|var wordAt = function(view, offset) {
  return view.getUint16(offset);
};
var dv = new DataView(8);
dv.setUint16(0, 513);
print(wordAt(dv, 0));|};
    {|var encodePretty = function(obj, indent) {
  return JSON.stringify(obj, null, indent);
};
print(encodePretty({a: 1}, 0).length);|};
    {|var parseList = function(text) {
  var arr = JSON.parse(text);
  return arr.length;
};
print(parseList("[10, 20, 30]"));|};
    {|var tryParse = function(text) {
  try {
    return JSON.parse(text);
  } catch (e) {
    return e.name;
  }
};
print(tryParse("{broken"));|};
    {|var evalSum = function(expr) {
  var value = eval(expr);
  return value * 2;
};
print(evalSum("3 + 4"));|};
    {|var evalText = function(code) {
  return eval(code);
};
print(evalText("'ev' + 'al'"));|};
    {|var protect = function(obj) {
  Object.freeze(obj);
  obj.extra = true;
  return Object.keys(obj).length;
};
print(protect({kept: 1}));|};
    {|var shield = function(arr) {
  Object.freeze(arr);
  arr[0] = 99;
  return arr[0];
};
print(shield([7]));|};
    {|var describeProp = function(obj, key) {
  var d = Object.getOwnPropertyDescriptor(obj, key);
  return d.writable;
};
print(describeProp({k: 1}, "k"));|};
    {|var lockLength = function(arr) {
  Object.defineProperty(arr, "length", { writable: false });
  arr.push(9);
  return arr.length;
};
var locked = [1, 2];
print(lockLength(locked));|};
    {|var propNames = function(obj) {
  var names = Object.getOwnPropertyNames(obj);
  return names.join("|");
};
print(propNames({beta: 1, alpha: 2}));|};
    {|var countKeys = function(source) {
  var copy = Object.assign({}, source);
  return Object.keys(copy).length;
};
print(countKeys({0: "a", one: "b", two: "c"}));|};
    {|var ownOnly = function(obj) {
  return obj.hasOwnProperty("valueOf");
};
print(ownOnly({plain: 1}));|};
    {|var removable = function(obj, key) {
  var ok = delete obj[key];
  return ok && obj[key] === undefined;
};
print(removable({tmp: 9}, "tmp"));|};
    {|var precision = function(value, digits) {
  return value.toPrecision(digits);
};
print(precision(0.001234, 2));|};
    {|var toBinary = function(n) {
  return n.toString(2);
};
print(toBinary(37));|};
    {|var money = function(amount) {
  return amount.toFixed(2);
};
print(money(19.999));|};
    {|var fromHexWord = function(word) {
  return parseInt(word, 16);
};
print(fromHexWord("cafe"));|};
    {|var measure = function(text) {
  var n = parseFloat(text);
  if (isNaN(n)) { return -1; }
  return n;
};
print(measure("12.5em"));|};
    {|var isCount = function(v) {
  return Number.isInteger(v) && v >= 0;
};
print(isCount(12));
print(isCount(-3));|};
    {|var safeDivide = function(a, b) {
  if (b === 0) { return Infinity; }
  return a / b;
};
print(safeDivide(10, 4));|};
    {|var roundTrip = function(x) {
  return Math.round(x * 100) / 100;
};
print(roundTrip(2.345));|};
    {|var hyp = function(a, b) {
  return Math.sqrt(a * a + b * b);
};
print(hyp(3, 4));|};
    {|var splitLimit = function(str, sep, limit) {
  var parts = str.split(sep, limit);
  return parts.join("+");
};
print(splitLimit("a:b:c:d", ":", 2));|};
    {|var splitChars = function(word) {
  return word.split("");
};
print(splitChars("xyz"));|};
    {|var extract = function(line) {
  var m = /(\w+)=(\w+)/.exec(line);
  return m[1] + " is " + m[2];
};
print(extract("mode=fast"));|};
    {|var anyMatch = function(str, re) {
  return re.test(str);
};
print(anyMatch("Hello World", /world/i));|};
    {|var countMatches = function(str) {
  var all = str.match(/a/g);
  if (all === null) { return 0; }
  return all.length;
};
print(countMatches("banana"));|};
    {|var searchAt = function(str, re) {
  return str.search(re);
};
print(searchAt("xx42yy", /\d+/));|};
    {|var copyBytes = function(source, offset) {
  var target = new Uint8Array(6);
  target.set(source, offset);
  return target.join(",");
};
print(copyBytes([7, 8, 9], 2));|};
    {|var sliceView = function(values, a, b) {
  var t = new Uint8Array(values);
  return t.subarray(a, b).join("-");
};
print(sliceView([1, 2, 3, 4], 1, 3));|};
    {|var widen = function(count) {
  var words = new Uint32Array(count);
  words[0] = 70000;
  return words[0];
};
print(widen(2));|};
    {|var signByte = function(v) {
  var t = new Int8Array(1);
  t[0] = v;
  return t[0];
};
print(signByte(130));|};
    {|var fillBytes = function(v) {
  var t = new Uint8Array(3);
  t.fill(v);
  return t.join(",");
};
print(fillBytes(9));|};
    {|var countdownSum = function(n) {
  var total = 0;
  do {
    total += n;
    n--;
  } while (n > 0);
  return total;
};
print(countdownSum(4));|};
    {|var firstTruthy = function(a, b, c) {
  return a || b || c;
};
print(firstTruthy(0, "", "third"));|};
    {|var guardAll = function(a, b) {
  return a && b && "both";
};
print(guardAll(1, 2));|};
    {|var pickBranch = function(mode) {
  switch (mode) {
    case "fast": return 1;
    case "slow": return 2;
    default: return 0;
  }
};
print(pickBranch("slow"));|};
    {|var chainOps = function(str) {
  return str.trim().split(",").map(function(p) { return p.toUpperCase(); }).join(";");
};
print(chainOps(" a,b "));|};
    {|var table = {};
var put = function(k, v) { table[k] = v; };
var get = function(k) { return table[k]; };
put("x", 10);
put("y", 20);
print(get("x") + get("y"));|};
    {|var Account = function(start) {
  this.balance = start;
};
Account.prototype.deposit = function(amount) {
  this.balance += amount;
  return this.balance;
};
var acct = new Account(100);
acct.deposit(50);
print(acct.balance);|};
    {|var later = function(v) {
  var thunk = function() { return v; };
  return thunk();
};
print(later("deferred"));|};
    {|var applyAll = function(fns, x) {
  var out = x;
  for (var i = 0; i < fns.length; i++) {
    out = fns[i](out);
  }
  return out;
};
var inc2 = function(v) { return v + 1; };
print(applyAll([inc2, inc2, inc2], 0));|};
    {|var memo = {};
var squareOf = function(n) {
  if (memo[n] !== undefined) { return memo[n]; }
  memo[n] = n * n;
  return memo[n];
};
squareOf(9);
print(squareOf(9));|};
    {|var truthTable = function(a, b) {
  return [a && b, a || b, !a].join("/");
};
print(truthTable(true, false));|};
    {|var stamps = [];
var record = function(label) {
  stamps.push(label);
  return stamps.length;
};
record("one");
record("two");
print(stamps.join(">"));|};
    {|var isEmpty = function(value) {
  if (value === null || value === undefined) { return true; }
  if (value.length !== undefined) { return value.length === 0; }
  return Object.keys(value).length === 0;
};
print(isEmpty([]));
print(isEmpty({a: 1}));|};
    {|var deepGet = function(obj, path) {
  var parts = path.split(".");
  var cur = obj;
  for (var i = 0; i < parts.length; i++) {
    cur = cur[parts[i]];
  }
  return cur;
};
print(deepGet({a: {b: {c: "deep"}}}, "a.b.c"));|};
    {|var padTable = function(rows) {
  return rows.map(function(r) { return ("" + r).padStart(4, " "); }).join("|");
};
print(padTable([1, 22, 333]));|};
  ]


(* Function headers that seed generation (paper §3.2: a corpus of headers
   sampled from the training set). *)
let seed_headers : string list =
  [
    "var a = function(x) {";
    "var f = function(str) {";
    "var check = function(value) {";
    "var run = function(arr, n) {";
    "function foo(a, b) {";
    "function process(str, start, len) {";
    "var helper = function(obj, key) {";
    "var calc = function(num, digits) {";
    "function main(input) {";
    "var test = function(list) {";
    "var convert = function(value, radix) {";
    "function build(size) {";
    "var op = function(a, b, c) {";
    "var pick = function(items, index) {";
    "function compare(x, y) {";
  ]
